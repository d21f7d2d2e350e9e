(* The service benchmark.

     perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   With [--trace 0] it starts three [wp_cli serve] processes in turn,
   warms each up and drives a closed loop against it from this process
   for a third of [S] seconds, then checks every distinct reply with the
   independent checker and prints the end-to-end metrics.  With [--trace 1] it calls the layers'
   public functions in-process on the same inputs, timing each call from
   outside, and prints the per-layer metrics.  The last line of standard
   output is one JSON object: correct, attempted, failed, metrics. *)

module Json = Wp_json.Json
module P = Wp_serve.Protocol

let now_ns = Wp_obs.Clock.now_ns
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Servers per run, each timed from spawn to the end of its warm-up;
   [setup_s] is the median. *)
let setups = 3

let command_line cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> String.trim l
  | _ -> "unknown"

let file_bytes f = (Unix.stat f).Unix.st_size

(* Where and on what this run measured. *)
let provenance ~seed (w : Inputs.workload) (docs : Check.docs) =
  let nodes = Hashtbl.fold (fun _ (d : Query.doc) a -> a + d.size) docs 0 in
  Printf.printf "provenance: nproc=%s recommended_domain_count=%d ocaml=%s commit=%s\n"
    (command_line "nproc") (Domain.recommended_domain_count ()) Sys.ocaml_version
    (command_line "git rev-parse --short HEAD");
  Printf.printf "provenance: seed=%d corpus_bytes=%d corpus_nodes=%d workers=%d connections=%d\n"
    seed
    (List.fold_left (fun a f -> a + file_bytes f) 0 w.files)
    nodes Server.workers Load.connections;
  Printf.printf "provenance: %s\n%!" (Inputs.describe w)

let answers_of (s : Load.sample) =
  match s.reply with Some r -> r.P.answers | None -> []

(* ---- the independent check of one run's replies ---- *)

let check_replies ~seed (w : Inputs.workload) docs ~first ~per_doc (samples : Load.sample list) =
  let errs = ref [] in
  let add where l = List.iter (fun e -> errs := (where ^ ": " ^ e) :: !errs) l in
  (* Repeats of a request must give the score list of its first reply. *)
  List.iter
    (fun (s : Load.sample) ->
      if not s.failed then
        match Hashtbl.find_opt first s.req with
        | Some (f : Load.sample) ->
            if not (Check.same_scores (Check.scores (answers_of f)) (Check.scores (answers_of s)))
            then add w.distinct.(s.req).Inputs.text [ "repeated request changed its scores" ]
        | None -> ())
    samples;
  let pairs = ref [] in
  Array.iteri
    (fun i (r : Inputs.request) ->
      match Hashtbl.find_opt first i with
      | None -> add r.text [ "no successful reply" ]
      | Some s -> (
          let answers = answers_of s in
          add r.text (Check.reply docs r answers);
          match r.doc with
          | Some d -> pairs := (r, d, answers) :: !pairs
          | None ->
              let lists = List.assoc i per_doc in
              List.iter
                (fun (d, (l : Load.sample)) ->
                  let rd = { r with doc = Some d } in
                  if l.failed then add rd.text [ "per-document fetch failed" ]
                  else begin
                    add (rd.text ^ " @" ^ d) (Check.reply docs rd (answers_of l));
                    pairs := (rd, d, answers_of l) :: !pairs
                  end)
                lists;
              add r.text (Check.merged r answers (List.map (fun (_, l) -> answers_of l) lists))))
    w.distinct;
  let pairs = List.rev !pairs in
  (* Lockstep-noprun on a seeded sample of bounded whirlpool-s pairs. *)
  let bounded =
    List.filter
      (fun ((r : Inputs.request), d, _) ->
        r.algo = "whirlpool-s"
        && Check.noprun_estimate (Hashtbl.find docs d) r.query <= Check.noprun_bound)
      pairs
  in
  let rng = Random.State.make [| seed; 7 |] in
  let sample =
    List.filteri (fun i _ -> i < 4)
      (List.sort compare
         (List.map (fun p -> (Random.State.bits rng, p)) bounded))
    |> List.map snd
  in
  if sample <> [] then begin
    let catalog = Inputs.catalog ~relax:w.relax_content w.files in
    List.iter
      (fun ((r : Inputs.request), d, answers) ->
        add r.text (Check.lockstep catalog r d answers))
      sample
  end;
  (* The checker must reject corrupted copies of a reply it accepted. *)
  (match
     List.find_opt (fun (_, _, answers) -> List.length answers >= 2) pairs
   with
  | None -> add "self-test" [ "no reply with two answers to corrupt" ]
  | Some (r, _, answers) ->
      add "self-test"
        (List.map (fun k -> "accepted a corrupted reply: " ^ k) (Check.self_test docs r answers)));
  Printf.printf "check: %d distinct requests, %d single-document lists, %d lockstep-noprun pairs (of %d bounded)\n%!"
    (Array.length w.distinct) (List.length pairs) (List.length sample) (List.length bounded);
  List.rev !errs

(* ---- end-to-end run ---- *)

(* One server's share of a run. *)
type part = {
  setup_s : float;  (* spawn to the end of warm-up *)
  warm_failed : bool;
  samples : Load.sample list;
  wall_s : float;
  peak_rss : float;
  per_doc : (int * (string * Load.sample) list) list;
      (* per merged request, each document's own list *)
}

(* A run is [setups] fresh servers, each set up (timed) and then driven
   for its share of the run, so that one run averages over how several
   server processes happen to run. *)
let end_to_end ~seed ~seconds (w : Inputs.workload) =
  let names = List.map Filename.basename w.files in
  let parts =
    List.init setups (fun i ->
        let t0 = now_ns () in
        Server.with_server w (fun srv ->
            let warm = Load.warm_up srv.socket w in
            let setup_s = secs_since t0 in
            let samples, wall_s =
              Load.timed_pass srv.socket w ~seconds:(seconds /. float_of_int setups)
            in
            let peak_rss = Server.peak_rss_mb srv in
            (* The per-document lists a merged reply is checked against,
               fetched outside any timing from the last server. *)
            let per_doc =
              if i < setups - 1 then []
              else
                List.concat
                  (List.mapi
                     (fun i (r : Inputs.request) ->
                       if r.doc <> None then []
                       else
                         let reqs = List.map (fun d -> { r with doc = Some d }) names in
                         [ (i, List.combine names (Load.fetch srv.socket reqs)) ])
                     (Array.to_list w.distinct))
            in
            let warm_failed = List.exists (fun (s : Load.sample) -> s.failed) warm in
            { setup_s; warm_failed; samples; wall_s; peak_rss; per_doc }))
  in
  let setup_times = List.map (fun p -> p.setup_s) parts in
  let failures =
    if List.exists (fun p -> p.warm_failed) parts then [ "warm-up request failed" ] else []
  in
  let samples = List.concat_map (fun p -> p.samples) parts in
  let wall_s = List.fold_left (fun a p -> a +. p.wall_s) 0.0 parts in
  let peak_rss = Stat.median (List.map (fun p -> p.peak_rss) parts) in
  let per_doc = List.concat_map (fun p -> p.per_doc) parts in
  let first = Hashtbl.create 64 in
  List.iter
    (fun (s : Load.sample) ->
      if (not s.failed) && not (Hashtbl.mem first s.req) then Hashtbl.replace first s.req s)
    (List.rev samples);
  let docs = Check.load_docs w in
  provenance ~seed w docs;
  let errs = failures @ check_replies ~seed w docs ~first ~per_doc samples in
  let ok = List.filter (fun (s : Load.sample) -> not s.failed) samples in
  let lat = List.map (fun (s : Load.sample) -> s.latency_ms) ok in
  let tail = match w.tail with Inputs.P99 -> 0.99 | Inputs.P90 -> 0.90 in
  let metrics =
    [
      ("setup_s", Stat.median setup_times, "s");
      ("throughput_qps", float_of_int (List.length ok) /. wall_s, "req/s");
      ("latency_p50_ms", Stat.median lat, "ms");
      ("latency_tail_ms", Stat.percentile tail lat, "ms");
      ("ttfa_p50_ms", Stat.median (List.map (fun (s : Load.sample) -> s.ttfa_ms) ok), "ms");
      ("peak_rss_mb", peak_rss, "MB");
    ]
  in
  Printf.printf "timed pass: %d requests in %.3f s, tail = %s over %d samples, setups %s\n"
    (List.length samples) wall_s (Inputs.tail_name w.tail) (List.length lat)
    (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times));
  (errs, List.length samples, List.length samples - List.length ok, metrics)

let result ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, value, unit) ->
                  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]))
                metrics) );
       ])

let usage () =
  prerr_endline
    "usage: perfbench --workload hot-stream|deep-merged|plan-churn --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload Inputs.names) || (!trace <> 0 && !trace <> 1) then usage ();
  let w = Inputs.prepare ~seed:!seed !workload in
  let errs, attempted, failed, metrics =
    if !trace = 0 then end_to_end ~seed:!seed ~seconds:!seconds w
    else Traced.run ~seed:!seed w
  in
  List.iteri (fun i e -> if i < 20 then prerr_endline ("check failed: " ^ e)) errs;
  if List.length errs > 20 then
    Printf.eprintf "check failed: ... %d more\n" (List.length errs - 20);
  print_endline (result ~correct:(errs = []) ~attempted ~failed metrics)
