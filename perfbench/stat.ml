(* Order statistics over one run's samples. *)

(* Nearest-rank percentile; [nan] on no samples. *)
let percentile p l =
  match List.sort Float.compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median l = percentile 0.5 l

let mean l =
  match l with [] -> nan | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
