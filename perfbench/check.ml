(* The answer checker.  It judges the server's replies against the
   naive matcher of [Query] and against the properties every backend
   must satisfy, never against a stored copy of earlier output:

   - each answer's root carries the pattern root's tag and its Dewey
     label is the document's;
   - no (doc, root) pair repeats and scores never increase down the
     list;
   - relaxed backends return min(k, #root-tag nodes) answers;
   - every [twig] answer is a naive exact match, and [twig] returns
     min(k, #exact matches) answers;
   - with at least k exact matches, the k relaxed scores are all equal,
     since relaxation never beats an exact match;
   - a merged list's scores are the top k of the per-document lists;
   - on a seeded sample of bounded pairs, [whirlpool-s] scores equal
     those of the prune-free [lockstep-noprun] (see [noprun_bound]).

   Each check returns the list of violations; empty means it passed. *)

module P = Wp_serve.Protocol

type docs = (string, Query.doc) Hashtbl.t

(* The checker's view of the corpus, parsed from the XML sources and
   keyed by the names the server answers with. *)
let load_docs (w : Inputs.workload) : docs =
  let docs = Hashtbl.create 8 in
  List.iter2
    (fun x f ->
      let name = Filename.basename f in
      Hashtbl.replace docs name (Query.load_xml ~name x))
    w.xml w.files;
  docs

let relaxed algo = algo <> "twig"

let eps = 1e-9
let same_score a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs a)

let scores (answers : P.answer list) = List.map (fun (a : P.answer) -> a.score) answers

let same_scores a b = List.length a = List.length b && List.for_all2 same_score a b

(* The checks of one reply of one request. *)
let reply (docs : docs) (r : Inputs.request) (answers : P.answer list) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let targets =
    match r.doc with
    | Some d -> [ Hashtbl.find docs d ]
    | None -> Hashtbl.fold (fun _ d acc -> d :: acc) docs []
  in
  let exact = List.map (fun d -> (d.Query.name, Query.matches d r.query)) targets in
  let n_exact = List.fold_left (fun a (_, m) -> a + Query.count_true m) 0 exact in
  let n_root = List.fold_left (fun a d -> a + Query.root_tag_count d r.query) 0 targets in
  let seen = Hashtbl.create 64 in
  List.iteri
    (fun i (a : P.answer) ->
      match List.find_opt (fun (d : Query.doc) -> d.name = a.doc) targets with
      | None -> err "answer %d names document %S outside the request" i a.doc
      | Some d ->
          if a.root < 1 || a.root >= d.size then err "answer %d: root %d out of range" i a.root
          else begin
            if d.tags.(a.root) <> r.query.tag then
              err "answer %d: root %d is <%s>, not <%s>" i a.root d.tags.(a.root) r.query.tag;
            if d.dewey.(a.root) <> a.dewey then
              err "answer %d: dewey %s, document says %s" i a.dewey d.dewey.(a.root);
            if (not (relaxed r.algo)) && not (List.assoc d.name exact).(a.root) then
              err "answer %d: twig root %d is not an exact match" i a.root
          end;
          if Hashtbl.mem seen (a.doc, a.root) then
            err "answer %d duplicates (%s, %d)" i a.doc a.root;
          Hashtbl.replace seen (a.doc, a.root) ())
    answers;
  let rec monotone i = function
    | a :: (b :: _ as rest) ->
        if b > a && not (same_score a b) then err "score rises at answer %d" (i + 1);
        monotone (i + 1) rest
    | _ -> ()
  in
  monotone 0 (scores answers);
  let want = min r.k (if relaxed r.algo then n_root else n_exact) in
  if List.length answers <> want then
    err "%d answers, expected %d (k=%d, %d root-tag nodes, %d exact matches)"
      (List.length answers) want r.k n_root n_exact;
  (match (r.doc, answers) with
  | Some _, first :: _ when relaxed r.algo && n_exact >= r.k ->
      if not (List.for_all (fun s -> same_score s first.score) (scores answers)) then
        err "%d exact matches but the top %d relaxed scores differ" n_exact r.k
  | _ -> ());
  List.rev !errs

(* A merged list against the per-document lists fetched separately. *)
let merged (r : Inputs.request) (answers : P.answer list) (per_doc : P.answer list list) =
  let all = List.sort (fun a b -> Float.compare b a) (List.concat_map scores per_doc) in
  let top = List.filteri (fun i _ -> i < r.k) all in
  if same_scores top (scores answers) then []
  else [ "merged scores are not the top k of the per-document lists" ]

(* ---- whirlpool-s against lockstep-noprun ---- *)

(* Partial matches a prune-free run may hold for one pattern over one
   document: per root-tag node, each further pattern node is absent or
   bound to one of the root's descendants with its tag.  Lockstep-noprun
   creates matches on this order, so only pairs under [bound] are run —
   a rich 800 KB document under an eight-node pattern exhausted a 2 GB
   address space. *)
let noprun_bound = 200_000

let noprun_estimate (d : Query.doc) (q : Query.t) =
  let rec tags (n : Query.node) = n.tag :: List.concat_map (fun (_, k) -> tags k) n.kids in
  let below = List.tl (tags q) in
  let total = ref 0 in
  (try
     for r = 1 to d.size - 1 do
       if d.tags.(r) = q.tag then begin
         let counts = Hashtbl.create 8 in
         for i = r + 1 to d.subtree_end.(r) - 1 do
           if List.mem d.tags.(i) below then
             Hashtbl.replace counts d.tags.(i)
               (1 + Option.value (Hashtbl.find_opt counts d.tags.(i)) ~default:0)
         done;
         total :=
           !total
           + List.fold_left
               (fun a t ->
                 a * (1 + Option.value (Hashtbl.find_opt counts t) ~default:0))
               1 below;
         if !total > noprun_bound then raise Exit
       end
     done
   with Exit -> ());
  !total

(* In-process, never over the wire: an unbounded pair would take the
   server down with it. *)
let lockstep (catalog : Wp_serve.Catalog.t) (r : Inputs.request) doc_name
    (answers : P.answer list) =
  let doc = Option.get (Wp_serve.Catalog.find catalog doc_name) in
  match Wp_serve.Catalog.plan_for catalog doc r.text with
  | Error e -> [ "lockstep-noprun: " ^ Wp_serve.Catalog.plan_error_message e ]
  | Ok cp ->
      let config =
        Whirlpool.Engine.Config.(default |> with_algo Lockstep_noprun)
      in
      let res = Wp_twig.Backend.run ~config cp.plan ~k:r.k in
      let reference =
        List.map (fun (e : Whirlpool.Topk_set.entry) -> e.score) res.answers
      in
      if same_scores reference (scores answers) then []
      else
        [
          Printf.sprintf "%s on %s: whirlpool-s scores differ from lockstep-noprun"
            r.text doc_name;
        ]

(* ---- self-test ---- *)

(* Corrupt a reply the checker accepted in each of the ways it must
   catch; every corrupted copy has to be rejected.  Returns the kinds
   of corruption that slipped through. *)
let self_test docs (r : Inputs.request) (answers : P.answer list) =
  let n = List.length answers in
  let map_nth i f = List.mapi (fun j a -> if j = i then f a else a) answers in
  let first = List.hd answers in
  let d : Query.doc = Hashtbl.find docs first.doc in
  let other_tag =
    let rec find i = if d.tags.(i) <> r.query.tag then i else find (i + 1) in
    find 1
  in
  let corruptions =
    [
      ("rising score", map_nth (n - 1) (fun a -> { a with P.score = first.score +. 1.0 }));
      ("wrong dewey", map_nth 0 (fun a -> { a with P.dewey = a.dewey ^ ".1" }));
      ("wrong root tag", map_nth 0 (fun a -> { a with P.root = other_tag; dewey = d.dewey.(other_tag) }));
      ("duplicate answer", map_nth (n - 1) (fun _ -> first));
      ("missing answer", List.filteri (fun i _ -> i < n - 1) answers);
    ]
  in
  List.filter_map
    (fun (kind, bad) -> if reply docs r bad = [] then Some kind else None)
    corruptions
