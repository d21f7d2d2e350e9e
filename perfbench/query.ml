(* The benchmark's own tree-pattern representation and a deliberately
   naive matcher over [Wp_xml.Doc].

   Patterns are generated here as values of [t] and sent to the server
   as XPath text; the answer checker matches the same values directly,
   so it needs neither the program's XPath parser nor its matcher.  The
   semantics follow the tree-pattern survey of Hachicha & Darmont: a
   document node [n] matches a pattern node [q] when it carries [q]'s
   tag, holds exactly [q]'s content value if [q] has one, and for every
   child edge of [q] some child ([/]) or proper descendant ([//]) of [n]
   matches that child.  Embeddings are not required to be injective. *)

type edge = Child | Desc

type node = { tag : string; value : string option; kids : (edge * node) list }

(* Every benchmark pattern is written [//tag...]: its root may bind any
   element below the document root. *)
type t = node

let rec size q = List.fold_left (fun a (_, k) -> a + size k) 1 q.kids

let sep = function Child -> "/" | Desc -> "//"

(* XPath text in the grammar of [Wp_pattern.Xpath_parser]: a predicate
   path is written as a chain while its nodes have a single child and
   no value, and opens a bracket otherwise. *)
let to_string (q : t) =
  let b = Buffer.create 64 in
  let rec step n =
    Buffer.add_string b n.tag;
    (match n.kids with
    | [] -> ()
    | kids ->
        Buffer.add_char b '[';
        List.iteri
          (fun i (e, k) ->
            if i > 0 then Buffer.add_string b " and ";
            Buffer.add_char b '.';
            chain e k)
          kids;
        Buffer.add_char b ']');
    match n.value with
    | None -> ()
    | Some v -> Buffer.add_string b (Printf.sprintf " = '%s'" v)
  and chain e n =
    Buffer.add_string b (sep e);
    match (n.kids, n.value) with
    | [ (e', k) ], None ->
        Buffer.add_string b n.tag;
        chain e' k
    | _ -> step n
  in
  Buffer.add_string b "//";
  step q;
  Buffer.contents b

(* ---- the document side ---- *)

(* A document as the checker sees it: tags, values, child lists and
   Dewey labels, all computed here from the parsed XML. *)
type doc = {
  name : string;
  size : int;
  tags : string array;
  values : string option array;
  kids : int array array;
  parent : int array;  (* -1 at the root *)
  subtree_end : int array;  (* one past a node's last descendant *)
  dewey : string array;  (* 1-based child ranks joined by '.'; "" at the root *)
}

let of_doc ~name (d : Wp_xml.Doc.t) =
  let size = Wp_xml.Doc.size d in
  let kids = Array.init size (fun i -> Array.of_list (Wp_xml.Doc.children d i)) in
  let dewey = Array.make size "" in
  let parent = Array.make size (-1) in
  let subtree_end = Array.make size 0 in
  for i = size - 1 downto 0 do
    subtree_end.(i) <-
      (match kids.(i) with [||] -> i + 1 | ks -> subtree_end.(ks.(Array.length ks - 1)))
  done;
  (* Preorder ids: every parent precedes its children. *)
  for i = 0 to size - 1 do
    Array.iteri
      (fun r c ->
        parent.(c) <- i;
        dewey.(c) <-
          (if i = 0 then string_of_int (r + 1)
           else dewey.(i) ^ "." ^ string_of_int (r + 1)))
      kids.(i)
  done;
  {
    name;
    size;
    tags = Array.init size (Wp_xml.Doc.tag d);
    values = Array.init size (Wp_xml.Doc.value d);
    kids;
    parent;
    subtree_end;
    dewey;
  }

let load_xml ~name path =
  of_doc ~name (Wp_xml.Doc.of_tree (Wp_xml.Parser.parse_file path))

(* [matches doc q] is the boolean vector of nodes that match the pattern
   root, computed bottom-up: for each pattern node, which document nodes
   match it, and which have a matching child / proper descendant. *)
let matches (d : doc) (q : t) =
  let rec vec (q : node) =
    let kid_vecs =
      List.map
        (fun (e, k) ->
          let m = vec k in
          let below = Array.make d.size false in
          (* Reverse preorder: children are final before their parent. *)
          for i = d.size - 1 downto 0 do
            below.(i) <-
              Array.exists
                (fun c -> m.(c) || (e = Desc && below.(c)))
                d.kids.(i)
          done;
          below)
        q.kids
    in
    Array.init d.size (fun i ->
        String.equal d.tags.(i) q.tag
        && (match q.value with
           | None -> true
           | Some v -> d.values.(i) = Some v)
        && List.for_all (fun below -> below.(i)) kid_vecs)
  in
  let m = vec q in
  (* [//tag] binds below the document root, never the root itself. *)
  m.(0) <- false;
  m

let count_true a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a

(* Nodes carrying the pattern root's tag: the candidates every relaxed
   backend answers, since relaxation may delete all the rest. *)
let root_tag_count (d : doc) (q : t) =
  let n = ref 0 in
  for i = 1 to d.size - 1 do
    if String.equal d.tags.(i) q.tag then incr n
  done;
  !n
