(* The load process: a closed loop over a [Wp_serve.Client]
   connection to a server running in its own process.  The next request
   goes out only after the terminal [Done] frame of the previous one. *)

module P = Wp_serve.Protocol
module Client = Wp_serve.Client

(* One connection, so each request's latency is its own: with two, the
   tail of a 10 s run measured how requests of the two connections
   happened to queue behind each other (p99 spread 44% between the
   quartiles of ten hot-stream runs, against 12% with one). *)
let connections = 1

let now_ns = Wp_obs.Clock.now_ns
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6

let query_of id (r : Inputs.request) : P.query =
    {
      id;
      query = r.text;
      doc = r.doc;
      k = Some r.k;
      deadline_ms = None;
      algo = Some r.algo;
      routing = None;
      batch = None;
      use_cache = None;
      bound_push = None;
    }

type sample = {
  req : int;  (* index into the workload's distinct requests *)
  latency_ms : float;  (* send to Done *)
  ttfa_ms : float;  (* send to the first Part, or to Done if none *)
  server_ms : float;  (* the reply's own elapsed_ms *)
  failed : bool;
  reply : P.response option;
}

let connect socket =
  match Client.connect socket with
  | Ok c -> c
  | Error e -> failwith (Client.error_to_string e)

(* One request over one connection, timed from the client side.  A
   transport error fails the request and reconnects. *)
let send conn socket id req (r : Inputs.request) =
  let t0 = now_ns () in
  let first = ref 0L in
  let on_part (_ : P.answer) = if !first = 0L then first := now_ns () in
  let result = Client.stream !conn ~on_part (P.Query (query_of id r)) in
  let t1 = now_ns () in
  let ttfa_ms = ms_between t0 (if !first = 0L then t1 else !first) in
  match result with
  | Ok resp ->
      {
        req;
        latency_ms = ms_between t0 t1;
        ttfa_ms;
        server_ms = resp.elapsed_ms;
        failed = resp.status <> P.Ok;
        reply = Some resp;
      }
  | Error _ ->
      Client.close !conn;
      conn := connect socket;
      { req; latency_ms = ms_between t0 t1; ttfa_ms; server_ms = nan; failed = true; reply = None }

(* Replay every distinct request once, in order, on one connection. *)
let warm_up socket (w : Inputs.workload) =
  let conn = ref (connect socket) in
  let out =
    Array.to_list
      (Array.mapi (fun i r -> send conn socket (i + 1) i r) w.distinct)
  in
  Client.close !conn;
  out

(* Whole rounds of the workload's request sequence until [seconds] have
   passed at a round boundary.  Returns the samples and the pass's wall
   time. *)
let timed_pass socket (w : Inputs.workload) ~seconds =
  let n = Array.length w.round in
  let conn = ref (connect socket) in
  let start = now_ns () in
  let deadline = Int64.add start (Int64.of_float (seconds *. 1e9)) in
  let rec loop i acc =
    if i mod n = 0 && i > 0 && now_ns () >= deadline then acc
    else
      let req = w.round.(i mod n) in
      loop (i + 1) (send conn socket (i + 1) req w.distinct.(req) :: acc)
  in
  let samples = loop 0 [] in
  Client.close !conn;
  (samples, ms_between start (now_ns ()) /. 1e3)

(* Fetch one list per request over a fresh connection, outside any
   timing: the per-document lists a merged reply is checked against. *)
let fetch socket reqs =
  let conn = ref (connect socket) in
  let out = List.mapi (fun i r -> send conn socket (i + 1) 0 r) reqs in
  Client.close !conn;
  out
