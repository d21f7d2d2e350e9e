(* The traced run: the layers' public entry points called in-process on
   the workload's inputs, each call wrapped in a span and timed from
   outside, plus one round against a server process for the transport.
   Spans stay in memory and are written to
   [.perfbench/spans/<workload>-<seed>.json] at the end. *)

module Json = Wp_json.Json
module P = Wp_serve.Protocol
module Catalog = Wp_serve.Catalog
module Stats = Whirlpool.Stats

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  req : int;  (* request index in the workload's round, -1 if none *)
  start_ns : int64;
  end_ns : int64;
}

let spans = ref []
let next_id = ref 0
let current = ref (-1)

(* Run [f] inside a span; returns its result and duration in ms. *)
let span ?(req = -1) name f =
  incr next_id;
  let id = !next_id and parent = !current in
  current := id;
  let start_ns = Wp_obs.Clock.now_ns () in
  let r = Fun.protect ~finally:(fun () -> current := parent) f in
  let end_ns = Wp_obs.Clock.now_ns () in
  spans := { id; name; parent; req; start_ns; end_ns } :: !spans;
  (r, Int64.to_float (Int64.sub end_ns start_ns) /. 1e6)

let write_spans ~seed (w : Inputs.workload) =
  let dir = Filename.concat Inputs.data_dir "spans" in
  Inputs.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-%d.json" w.name seed) in
  let json =
    Json.List
      (List.rev_map
         (fun s ->
           Json.Obj
             [
               ("id", Json.Int s.id);
               ("name", Json.String s.name);
               ("parent", Json.Int s.parent);
               ("req", Json.Int s.req);
               ("start_ns", Json.Int (Int64.to_int s.start_ns));
               ("end_ns", Json.Int (Int64.to_int s.end_ns));
             ])
         !spans)
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string json));
  path

(* A request's documents, in the order the service runs them: shard by
   shard, load order within a shard. *)
let targets (catalog : Catalog.t) (r : Inputs.request) =
  match r.doc with
  | Some d -> [ Option.get (Catalog.find catalog d) ]
  | None ->
      List.stable_sort
        (fun (a : Catalog.doc) (b : Catalog.doc) -> Int.compare a.shard b.shard)
        (Catalog.docs catalog)

let algo_of (r : Inputs.request) =
  Option.get (Whirlpool.Engine.Config.algo_of_string r.algo)

let json_int key j =
  match Option.bind j (Json.member key) with Some (Json.Int n) -> n | _ -> 0

(* The counters two runs of one deterministic path must agree on. *)
let counters (s : Stats.t) =
  [ s.server_ops; s.comparisons; s.matches_created; s.matches_pruned; s.matches_died; s.completed ]

(* One request of the in-process service round. *)
type handled = {
  req : int;  (* index into the workload's distinct requests *)
  resp : P.response;
  parts : P.answer list;  (* streamed, in order *)
  handle_ms : float;
  first_ms : float;  (* to the first streamed answer, or the reply *)
  overhead_ms : float;  (* handle_ms minus the replay's engine runs *)
}

let run ~seed (w : Inputs.workload) =
  let errs = ref [] in
  (* load: open every document, then force its dataguide. *)
  let catalog = Inputs.catalog ~shards:w.shards ~plan_cache:w.plan_cache ~relax:w.relax_content [] in
  let open_ms =
    List.fold_left
      (fun acc f ->
        let r, ms = span "load.open" (fun () -> Catalog.load_file catalog f) in
        (match r with Ok _ -> () | Error m -> failwith m);
        acc +. ms)
      0.0 w.files
  in
  let dataguide_ms =
    List.fold_left
      (fun acc (d : Catalog.doc) ->
        acc +. snd (span "load.dataguide" (fun () -> ignore (Lazy.force d.dataguide))))
      0.0 (Catalog.docs catalog)
  in
  (* catalog + engine: the service's per-document steps replayed on a
     catalog configured like the server's — the warm-up (every distinct
     request once), then one round — so plan-cache and candidate-cache
     states evolve as in the server.  Each [plan_for] and each
     [Backend.run] is a span.  A merged request's runs share one gather,
     as the service's shards do, but one after another, so its pushed
     bound is deterministic.  The replay runs twice on fresh catalogs;
     both must count the same engine work. *)
  let replay pass =
    let catalog =
      Inputs.catalog ~shards:w.shards ~plan_cache:w.plan_cache ~relax:w.relax_content w.files
    in
    let compile = ref [] and lookup = ref [] and hits = ref 0 and misses = ref 0 in
    let run_request ~timed req_ix (r : Inputs.request) =
      let gather = Wp_serve.Gather.create ~push:(r.doc = None) ~k:r.k () in
      List.map
        (fun (d : Catalog.doc) ->
          let before = (Catalog.plan_cache_stats catalog).hits in
          let cp, ms =
            span ~req:req_ix "catalog.plan_for" (fun () -> Catalog.plan_for catalog d r.text)
          in
          let cp =
            match cp with Ok cp -> cp | Error e -> failwith (Catalog.plan_error_message e)
          in
          if (Catalog.plan_cache_stats catalog).hits > before then begin
            lookup := (ms *. 1e3) :: !lookup;
            if timed then incr hits
          end
          else begin
            compile := ms :: !compile;
            if timed then incr misses;
            (* A plan-churn replay never hits: probe the lookup once
               right after the insert. *)
            let _, ms =
              span ~req:req_ix "catalog.plan_for" (fun () -> Catalog.plan_for catalog d r.text)
            in
            lookup := (ms *. 1e3) :: !lookup
          end;
          let config =
            Whirlpool.Engine.Config.(
              default |> with_algo (algo_of r)
              |> with_cache (Some cp.cache)
              |> with_prune_bound (Wp_serve.Gather.bound_reader gather)
              |> with_publish_threshold (Wp_serve.Gather.publish gather))
          in
          let guide =
            match algo_of r with
            | Twig | Twig_seeded -> Some (Lazy.force d.dataguide)
            | _ -> None
          in
          let words0 = Gc.minor_words () in
          let res, ms =
            span ~req:req_ix (Printf.sprintf "engine.run.%d" pass) (fun () ->
                Wp_twig.Backend.run ~config ?guide cp.plan ~k:r.k)
          in
          Wp_serve.Gather.note_scores gather
            (List.map (fun (e : Whirlpool.Topk_set.entry) -> e.score) res.answers);
          (ms, Gc.minor_words () -. words0, res.Whirlpool.Engine.stats))
        (targets catalog r)
    in
    Array.iteri (fun i r -> ignore (run_request ~timed:false (-1 - i) r)) w.distinct;
    let e0 = (Catalog.plan_cache_stats catalog).evictions in
    let round = Array.mapi (fun i req -> run_request ~timed:true i w.distinct.(req)) w.round in
    let evictions = (Catalog.plan_cache_stats catalog).evictions - e0 in
    (round, !compile, !lookup, Stat.ratio !hits (!hits + !misses), evictions)
  in
  let first, compile, lookup, plan_hit_rate, evictions = replay 1 in
  let second, _, _, _, _ = replay 2 in
  Array.iteri
    (fun i runs ->
      List.iter2
        (fun (_, _, a) (_, _, b) ->
          if counters a <> counters b then
            errs :=
              Printf.sprintf "engine counters of %s differ between two replays"
                w.distinct.(w.round.(i)).text
              :: !errs)
        runs second.(i))
    first;
  let runs = List.concat (Array.to_list first) in
  let digest =
    String.sub
      (Digest.to_hex
         (Digest.string
            (String.concat ","
               (List.concat_map (fun (_, _, s) -> List.map string_of_int (counters s)) runs))))
      0 8
  in
  (* Counters per request of the round, summed over its documents. *)
  let per_request f =
    Stat.mean
      (Array.to_list
         (Array.map (fun l -> float_of_int (List.fold_left (fun a (_, _, s) -> a + f s) 0 l)) first))
  in
  let sum_runs f = List.fold_left (fun a (_, _, s) -> a + f s) 0 runs in
  let engine_ms_of i = List.fold_left (fun a (ms, _, _) -> a +. ms) 0.0 first.(i) in
  (* service: a fresh catalog and service as the server builds them,
     warmed by every distinct request, then one round streamed. *)
  let svc_catalog =
    Inputs.catalog ~shards:w.shards ~plan_cache:w.plan_cache ~relax:w.relax_content w.files
  in
  let service = Wp_serve.Service.create ~catalog:svc_catalog () in
  Array.iteri
    (fun i r ->
      ignore (span ~req:(-1 - i) "service.warm_up" (fun () -> Wp_serve.Service.handle_query service (Load.query_of i r))))
    w.distinct;
  let handled =
    Array.mapi
      (fun i req ->
        let t0 = Wp_obs.Clock.now_ns () in
        let first_part = ref None and parts = ref [] in
        let on_part a =
          if !first_part = None then first_part := Some (Wp_obs.Clock.now_ns ());
          parts := a :: !parts
        in
        let (resp, _), ms =
          span ~req:i "service.handle_query_stream" (fun () ->
              Wp_serve.Service.handle_query_stream service ~on_part (Load.query_of i w.distinct.(req)))
        in
        let first_ms =
          match !first_part with Some t -> Int64.to_float (Int64.sub t t0) /. 1e6 | None -> ms
        in
        { req; resp; parts = List.rev !parts; handle_ms = ms; first_ms;
          overhead_ms = ms -. engine_ms_of i })
      w.round
    |> Array.to_list
  in
  (* The in-process replies pass the same checker as the served ones. *)
  let docs = Check.load_docs w in
  let checked = Hashtbl.create 64 in
  List.iter
    (fun h ->
      let r = w.distinct.(h.req) in
      if h.resp.P.status <> P.Ok then
        errs := Printf.sprintf "in-process %s: %s" r.text (P.status_to_string h.resp.status) :: !errs
      else if not (Hashtbl.mem checked h.req) then begin
        Hashtbl.replace checked h.req ();
        List.iter (fun e -> errs := (r.text ^ ": " ^ e) :: !errs) (Check.reply docs r h.resp.answers)
      end)
    handled;
  (* Merged requests read the pushed bound on a timer, so repeats of one
     request may count different work: the mean relative spread
     (max - min) / mean of their comparisons over the round. *)
  let merged_spread =
    let by_req = Hashtbl.create 8 in
    List.iter
      (fun h ->
        if w.distinct.(h.req).doc = None then
          Hashtbl.replace by_req h.req
            (float_of_int (json_int "comparisons" h.resp.stats)
            :: Option.value (Hashtbl.find_opt by_req h.req) ~default:[]))
      handled;
    let spreads =
      Hashtbl.fold
        (fun _ l acc ->
          (List.fold_left Float.max neg_infinity l -. List.fold_left Float.min infinity l)
          /. Stat.mean l
          :: acc)
        by_req []
    in
    if spreads = [] then 0.0 else Stat.mean spreads
  in
  (* codec: each reply encoded and decoded as the wire does it; bytes
     count every Part and the Done frame with their length prefixes. *)
  let codec =
    List.map
      (fun h ->
        let _, enc_ms = span "codec.encode" (fun () -> Json.to_string (P.response_to_json h.resp)) in
        let done_frame = Json.to_string (P.frame_to_json (P.Done h.resp)) in
        let _, dec_ms = span "codec.decode" (fun () -> P.parse_frame done_frame) in
        let bytes =
          List.fold_left ( + ) (4 + String.length done_frame)
            (List.mapi
               (fun seq answer ->
                 4 + String.length (Json.to_string (P.frame_to_json (P.Part { id = h.resp.id; seq; answer }))))
               h.parts)
        in
        (enc_ms *. 1e3, dec_ms *. 1e3, float_of_int bytes))
      handled
  in
  (* transport: one round against a server process, client round trip
     minus the server's own elapsed time. *)
  let warm, rss_warm, samples =
    Server.with_server w (fun srv ->
        let warm = Load.warm_up srv.socket w in
        let rss_warm = Server.rss_mb srv in
        (* A zero-second pass runs exactly one round. *)
        let (samples, _), _ =
          span "transport.round" (fun () -> Load.timed_pass srv.socket w ~seconds:0.0)
        in
        (warm, rss_warm, samples))
  in
  if List.exists (fun (s : Load.sample) -> s.failed) warm then errs := "warm-up request failed" :: !errs;
  let ok = List.filter (fun (s : Load.sample) -> not s.failed) samples in
  Printf.printf "traced: engine counters digest %s over %d runs; spans in %s\n%!" digest
    (List.length runs) (write_spans ~seed w);
  let f name value unit = (name, value, unit) in
  let metrics =
    [
      f "load.open_ms" open_ms "ms";
      f "load.dataguide_ms" dataguide_ms "ms";
      f "catalog.compile_ms_p50" (Stat.median compile) "ms";
      f "catalog.lookup_us_p50" (Stat.median lookup) "us";
      f "catalog.plan_hit_rate" plan_hit_rate "ratio";
      f "catalog.evictions" (float_of_int evictions) "count";
      f "engine.run_ms_p50" (Stat.median (List.map (fun (ms, _, _) -> ms) runs)) "ms";
      f "engine.server_ops" (per_request (fun s -> s.server_ops)) "count";
      f "engine.comparisons" (per_request (fun s -> s.comparisons)) "count";
      f "engine.matches_created" (per_request (fun s -> s.matches_created)) "count";
      f "engine.matches_pruned" (per_request (fun s -> s.matches_pruned)) "count";
      f "engine.prune_ratio"
        (Stat.ratio (sum_runs (fun s -> s.matches_pruned)) (sum_runs (fun s -> s.matches_created)))
        "ratio";
      f "engine.candidate_hit_rate"
        (Stat.ratio (sum_runs (fun s -> s.cache_hits))
           (sum_runs (fun s -> s.cache_hits + s.cache_misses)))
        "ratio";
      f "engine.minor_mwords" (Stat.mean (List.map (fun (_, words, _) -> words /. 1e6) runs)) "Mwords";
      f "service.handle_ms_p50" (Stat.median (List.map (fun h -> h.handle_ms) handled)) "ms";
      f "service.merge_overhead_ms_p50" (Stat.median (List.map (fun h -> h.overhead_ms) handled)) "ms";
      f "service.merged_comparisons_spread" merged_spread "ratio";
      f "codec.encode_us_p50" (Stat.median (List.map (fun (e, _, _) -> e) codec)) "us";
      f "codec.decode_us_p50" (Stat.median (List.map (fun (_, d, _) -> d) codec)) "us";
      f "codec.reply_bytes" (Stat.mean (List.map (fun (_, _, b) -> b) codec)) "bytes";
      f "transport.overhead_ms_p50"
        (Stat.median (List.map (fun (s : Load.sample) -> s.latency_ms -. s.server_ms) ok))
        "ms";
      f "stream.parts_per_request"
        (Stat.mean (List.map (fun h -> float_of_int (List.length h.parts)) handled))
        "count";
      f "stream.first_part_ms_p50" (Stat.median (List.map (fun h -> h.first_ms) handled)) "ms";
      f "server.rss_warm_mb" rss_warm "MB";
    ]
  in
  (List.rev !errs, List.length samples, List.length samples - List.length ok, metrics)
