(* Seeded inputs: each workload's corpus and request stream.

   Documents come from the program's own generator
   ([wp_cli generate --profile]) and, where a workload serves mapped
   indexes, [wp_cli index build].  Everything is derived from the
   workload name and the seed, and prepared under
   [.perfbench/inputs/<workload>/]; a [ready] marker naming the seed,
   written last, lets a run with the same seed reuse the inputs. *)

type doc_spec = { profile : string; bytes : int }

type request = {
  query : Query.t;
  text : string;  (* the XPath sent on the wire *)
  doc : string option;  (* [None] asks for the merged corpus top-k *)
  k : int;
  algo : string;
}

type tail = P90 | P99

type workload = {
  name : string;
  docs : doc_spec list;
  mapped : bool;  (* serve [.wpidx] indexes instead of XML *)
  shards : int;
  plan_cache : int;
  relax_content : bool;
  tail : tail;
  files : string list;  (* served files, in load order *)
  xml : string list;  (* the XML source of each, for the checker *)
  distinct : request array;
  round : int array;  (* one round: indices into [distinct] *)
}

let names = [ "hot-stream"; "deep-merged"; "plan-churn" ]

let tail_name = function P90 -> "p90" | P99 -> "p99"

(* ---- process helpers ---- *)

let wp_cli () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "wp_cli.exe")

let run_quiet prog args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin null
          Unix.stderr)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ ->
      failwith
        (Printf.sprintf "%s %s failed" (Filename.basename prog)
           (String.concat " " args))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let data_dir = ".perfbench"

(* ---- workload shapes ---- *)

let q tag kids = { Query.tag; value = None; kids }
let v tag value = { Query.tag; value = Some value; kids = [] }
let c k = (Query.Child, k)
let d k = (Query.Desc, k)
let path tags leaf = List.fold_right (fun t k -> q t [ c k ]) tags leaf

(* A fixed handful of cheap shapes over small documents. *)
let hot_shapes =
  [
    q "item" [ c (path [ "description" ] (q "parlist" [])) ];
    q "item" [ c (path [ "mailbox"; "mail" ] (q "text" [])); c (q "name" []) ];
    q "person" [ c (path [ "address" ] (q "city" [])); c (q "emailaddress" []) ];
    q "item" [ d (q "keyword" []); c (q "incategory" []) ];
    q "category" [ c (path [ "description" ] (q "text" [])) ];
  ]

(* Six- to eight-node shapes: the paper's Q3, the content-predicate
   variant of [bench/report.ml]'s QC query, and three lighter ones.
   Q3 needs at least k exact matches in the corpus to prune: over a
   400 KB rich document and three 300 KB sparse ones, one merged Q3
   request created 69M partial matches in 16 s.  A fourth heavy shape,
   [//item[./description/text[./keyword and ./bold] and ./name and
   ./location]], was left out because its server time flips between
   about 110 and 210 ms for the same work, which swamped the run's
   throughput. *)
let deep_shapes =
  [
    q "item"
      [
        c (path [ "mailbox"; "mail" ] (q "text" [ c (q "bold" []); c (q "keyword" []) ]));
        c (q "name" []);
        c (q "incategory" []);
      ];
    q "item"
      [
        c (path [ "mailbox"; "mail" ] (q "text" [ c (v "keyword" "vintage") ]));
        c (q "name" []);
        c (q "incategory" []);
      ];
    q "item"
      [ c (path [ "mailbox" ] (q "mail" [ c (q "from" []); c (q "to" []); c (q "date" []) ])); c (q "name" []) ];
    q "item"
      [
        c (path [ "description" ] (q "parlist" []));
        c (path [ "mailbox" ] (q "mail" []));
        c (q "name" []);
      ];
    q "person"
      [
        c (q "address" [ c (q "city" []); c (q "country" []) ]);
        c (q "name" []);
        c (q "emailaddress" []);
      ];
  ]

let request ?doc ~k ~algo query =
  { query; text = Query.to_string query; doc; k; algo }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---- plan-churn patterns from real label paths ---- *)

(* Root tags for plan-churn patterns: every tag with instances whose
   subtree holds 4 to 150 nodes, each with those instances, in tag
   order.  Drawing the same number of patterns per tag keeps the mix of
   pattern shapes alike from seed to seed. *)
let churn_roots (doc : Query.doc) =
  let by_tag = Hashtbl.create 16 in
  for r = 1 to doc.size - 1 do
    let n = doc.subtree_end.(r) - r in
    if n >= 4 && n <= 150 then
      Hashtbl.replace by_tag doc.tags.(r)
        (r :: Option.value (Hashtbl.find_opt by_tag doc.tags.(r)) ~default:[])
  done;
  Hashtbl.fold (fun tag rs acc -> (tag, Array.of_list (List.rev rs)) :: acc) by_tag []
  |> List.sort compare

(* One candidate pattern rooted at node [r] of [doc]: branches, each the label path from the root to one of its real
   descendants, with random interior steps skipped (turning the edge
   into [//]) and, for short values, the leaf's content as an
   equality predicate.  [r] itself is an exact match, so every
   candidate has answers by construction; the checker confirms it
   independently. *)
let churn_size = 5

let churn_candidate rng (doc : Query.doc) r =
  let subtree_end = doc.subtree_end and parent = doc.parent in
  let branch () =
    let target = r + 1 + Random.State.int rng (subtree_end.(r) - r - 1) in
    let rec up n acc = if n = r then acc else up parent.(n) (n :: acc) in
    let steps = up target [] in
    let last = List.length steps - 1 in
    let kept =
      List.filteri (fun i _ -> i = last || Random.State.float rng 1.0 > 0.3) steps
    in
    let value =
      match doc.values.(target) with
      | Some s
        when String.length s <= 24
             && (not (String.contains s '\''))
             && Random.State.float rng 1.0 < 0.35 ->
          Some s
      | _ -> None
    in
    let rec build prev = function
      | [] -> assert false
      | [ n ] ->
          let e = if parent.(n) = prev then Query.Child else Query.Desc in
          (e, { Query.tag = doc.tags.(n); value; kids = [] })
      | n :: rest ->
          let e = if parent.(n) = prev then Query.Child else Query.Desc in
          (e, { Query.tag = doc.tags.(n); value = None; kids = [ build n rest ] })
    in
    build r kept
  in
  (* Branches are added until the pattern has [churn_size] nodes; a
     root whose draws overshoot gives no candidate.  Compilation cost
     grows with the relaxation lattice, so a fixed size keeps it alike
     across seeds. *)
  let rec grow branches tries =
    let q = { Query.tag = doc.tags.(r); value = None; kids = branches } in
    let n = Query.size q in
    if n = churn_size then Some q
    else if n > churn_size || tries = 0 then None
    else grow (List.sort_uniq compare (branch () :: branches)) (tries - 1)
  in
  grow [] 6

(* ---- preparation ---- *)

(* [corpus_seed] fixes the corpus of deep-merged: its cost follows the
   documents' make-up, and two of ten corpus seeds (4 and 7) ran 14-27%
   below the median throughput in every ten-seed set, which alone filled
   the bound.  The other workloads draw their corpus from [--seed]. *)
let spec name =
  match name with
  | "hot-stream" ->
      ( List.init 3 (fun _ -> { profile = "default"; bytes = 1_000_000 }),
        false, 1, 128, false, P99, None )
  | "deep-merged" ->
      ( { profile = "rich"; bytes = 1_000_000 }
        :: List.init 3 (fun _ -> { profile = "sparse"; bytes = 500_000 }),
        true, 2, 64, true, P90, Some 1 )
  | "plan-churn" ->
      ( List.init 3 (fun _ -> { profile = "default"; bytes = 1_000_000 }),
        true, 1, 16, false, P99, None )
  | other -> invalid_arg ("unknown workload " ^ other)

let churn_tries = 8
let churn_per_tag = 4

(* Keep the plan-churn candidates the program compiles and its analyzer
   accepts (the same catalog path the server takes), that the naive
   matcher confirms have exact answers, and whose [whirlpool-s] run
   creates at most [churn_matches] partial matches: some generated
   patterns (deep [//] chains under recursive [parlist]s) run for
   minutes and grow the heap without bound, and a workload about
   compilation must not hinge on them.  The budget is a count, so a seed
   keeps the same patterns on any host; the [churn_guard_ms] stop only
   cuts a runaway short. *)
let churn_matches = 10_000
let churn_guard_ms = 500.0

(* A catalog configured as the server is, with the files loaded. *)
let catalog ?(shards = 1) ?(plan_cache = 128) ~relax files =
  let catalog =
    Wp_serve.Catalog.create ~shards ~plan_cache
      ~config:(if relax then Wp_relax.Relaxation.with_content else Wp_relax.Relaxation.all)
      ()
  in
  List.iter
    (fun f ->
      match Wp_serve.Catalog.load_file catalog f with
      | Ok _ -> ()
      | Error m -> failwith m)
    files;
  catalog

let validate_churn ~files ~relax cands =
  let catalog = catalog ~relax files in
  let cheap (plan : Whirlpool.Plan.t) k =
    let t0 = Wp_obs.Clock.now_ns () in
    let limit = Int64.add t0 (Int64.of_float (churn_guard_ms *. 1e6)) in
    let config =
      Whirlpool.Engine.Config.(
        default |> with_should_stop (fun () -> Wp_obs.Clock.now_ns () >= limit))
    in
    let res = Wp_twig.Backend.run ~config plan ~k in
    (not res.partial) && res.stats.matches_created <= churn_matches
  in
  List.filter
    (fun ((doc : Query.doc), (r : request)) ->
      let served = Option.get (Wp_serve.Catalog.find catalog (Option.get r.doc)) in
      match Wp_serve.Catalog.plan_for catalog served r.text with
      | Ok cp -> Query.count_true (Query.matches doc r.query) > 0 && cheap cp.plan r.k
      | Error _ -> false)
    cands
  |> List.map (fun ((_ : Query.doc), (r : request)) -> r)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun s -> s <> "")

(* Write [lines] to [path] through a temporary file, so a reader never
   sees a half-written cache entry. *)
let write_lines path lines =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  Sys.rename tmp path

(* The corpus of a workload, generated from [seed] or the workload's
   fixed corpus seed (document [i] from generator seed [16 * seed + i]).  Only the last seed's inputs are
   kept: the [ready] marker names it, and a different seed wipes the
   directory and starts over. *)
let corpus ~seed name =
  let docs, mapped, _, _, _, _, corpus_seed = spec name in
  let doc_seed = Option.value corpus_seed ~default:seed in
  let dir = Filename.concat data_dir (Filename.concat "inputs" name) in
  let ready = Filename.concat dir "ready" in
  let fresh =
    not (Sys.file_exists ready && read_lines ready = [ string_of_int seed ])
  in
  if fresh then begin
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    mkdir_p dir
  end;
  let xml =
    List.mapi
      (fun i (s : doc_spec) ->
        let f = Filename.concat dir (Printf.sprintf "%s%d.xml" s.profile i) in
        if fresh then
          run_quiet (wp_cli ())
            [
              "generate"; "-o"; f; "--size"; string_of_int s.bytes;
              "--seed"; string_of_int ((16 * doc_seed) + i); "--profile"; s.profile;
            ];
        f)
      docs
  in
  let files =
    if not mapped then xml
    else
      List.map
        (fun x ->
          let f = Filename.chop_suffix x ".xml" ^ ".wpidx" in
          if fresh then run_quiet (wp_cli ()) [ "index"; "build"; x; "-o"; f ];
          f)
        xml
  in
  (dir, xml, files, fresh, ready)

let prepare ~seed name =
  let docs, mapped, shards, plan_cache, relax_content, tail, _ = spec name in
  let dir, xml, files, fresh, ready = corpus ~seed name in
  let names = List.map Filename.basename files in
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  let distinct, round =
    match name with
    | "hot-stream" ->
        let distinct =
          List.concat_map
            (fun shape ->
              List.concat_map
                (fun doc ->
                  List.map
                    (fun algo -> request ~doc ~k:10 ~algo shape)
                    [ "whirlpool-s"; "twig"; "twig-seeded" ])
                names)
            hot_shapes
          |> Array.of_list
        in
        let n = Array.length distinct in
        (distinct, shuffle rng (Array.init (4 * n) (fun i -> i mod n)))
    | "deep-merged" ->
        let distinct =
          Array.of_list (List.map (request ~k:50 ~algo:"whirlpool-s") deep_shapes)
        in
        let n = Array.length distinct in
        (distinct, shuffle rng (Array.init (3 * n) (fun i -> i mod n)))
    | _ ->
        (* Per document and root tag, [churn_tries] candidates, of which
           the first [churn_per_tag] valid and distinct ones are kept. *)
        let cands =
          List.concat_map
            (fun (x, served) ->
              let doc = Query.load_xml ~name:served x in
              List.concat_map
                (fun (_, roots) ->
                  List.filter_map
                    (fun _ ->
                      let r = roots.(Random.State.int rng (Array.length roots)) in
                      Option.map
                        (fun q -> (doc, request ~doc:served ~k:10 ~algo:"whirlpool-s" q))
                        (churn_candidate rng doc r))
                    (List.init churn_tries Fun.id))
                (churn_roots doc))
            (List.combine xml names)
        in
        let key (r : request) = Option.get r.doc ^ "\t" ^ r.text in
        let kept_file = Filename.concat dir "kept" in
        let keys =
          if not fresh then read_lines kept_file
          else begin
            let per_tag = Hashtbl.create 64 and seen = Hashtbl.create 256 in
            let keys =
              validate_churn ~files ~relax:relax_content cands
              |> List.filter (fun (r : request) ->
                     let slot = (r.doc, r.query.tag) in
                     let n = Option.value (Hashtbl.find_opt per_tag slot) ~default:0 in
                     let keep = n < churn_per_tag && not (Hashtbl.mem seen (key r)) in
                     if keep then begin
                       Hashtbl.replace per_tag slot (n + 1);
                       Hashtbl.replace seen (key r) ()
                     end;
                     keep)
              |> List.map key
            in
            write_lines kept_file keys;
            keys
          end
        in
        let by_key = Hashtbl.create 256 in
        List.iter (fun ((_ : Query.doc), r) -> Hashtbl.replace by_key (key r) r) cands;
        let distinct = Array.of_list (List.map (Hashtbl.find by_key) keys) in
        (distinct, shuffle rng (Array.init (Array.length distinct) Fun.id))
  in
  (* Number the distinct requests in order of first appearance in the
     round, so a warm-up that replays them in index order leaves the
     plan cache as a previous round would: plan-churn's first round then
     misses like every later one. *)
  let seen = Array.make (Array.length distinct) false in
  let first =
    List.rev
      (Array.fold_left
         (fun acc d ->
           if seen.(d) then acc
           else begin
             seen.(d) <- true;
             d :: acc
           end)
         [] round)
  in
  let pos = Array.make (Array.length distinct) 0 in
  List.iteri (fun p d -> pos.(d) <- p) first;
  let distinct = Array.of_list (List.map (fun d -> distinct.(d)) first)
  and round = Array.map (fun d -> pos.(d)) round in
  if fresh then write_lines ready [ string_of_int seed ];
  {
    name; docs; mapped; shards; plan_cache; relax_content; tail;
    files; xml; distinct; round;
  }

let describe w =
  let algos =
    Array.to_list w.distinct |> List.map (fun r -> r.algo) |> List.sort_uniq compare
  in
  Printf.sprintf
    "%s: %d docs (%s, %s), %d distinct requests, round of %d, algos %s, \
     shards %d, plan cache %d, relax-content %b, tail %s"
    w.name (List.length w.files)
    (String.concat "+"
       (List.map (fun s -> Printf.sprintf "%s:%dB" s.profile s.bytes) w.docs))
    (if w.mapped then "wpidx" else "xml")
    (Array.length w.distinct) (Array.length w.round) (String.concat "," algos)
    w.shards w.plan_cache w.relax_content (tail_name w.tail)
