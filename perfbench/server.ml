(* A [wp_cli serve] process: spawned with every pool and cache
   size pinned, awaited until it listens, and stopped gracefully. *)

type t = { pid : int; socket : string; out : in_channel }

(* One worker domain (at most [nproc - 1] on the two-core reference
   host) and a queue deep enough that the benchmark's closed loop never
   sheds. *)
let workers = 1
let queue_depth = 16

let counter = ref 0

let spawn (w : Inputs.workload) =
  let dir = Filename.concat Inputs.data_dir "run" in
  Inputs.mkdir_p dir;
  incr counter;
  (* A relative path keeps the socket name short whatever the checkout
     path; the server shares our working directory. *)
  let socket =
    Filename.concat dir (Printf.sprintf "%d-%d.sock" (Unix.getpid ()) !counter)
  in
  let args =
    [ "serve" ] @ w.files
    @ [
        "--socket"; socket;
        "--workers"; string_of_int workers;
        "--queue-depth"; string_of_int queue_depth;
        "--plan-cache"; string_of_int w.plan_cache;
        "--shards"; string_of_int w.shards;
      ]
    @ if w.relax_content then [ "--relax-content" ] else []
  in
  let prog = Inputs.wp_cli () in
  let r, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let out = Unix.in_channel_of_descr r in
  let rec await () =
    match In_channel.input_line out with
    | None ->
        ignore (Unix.waitpid [] pid);
        failwith "server exited before listening"
    | Some l when String.starts_with ~prefix:"Listening on" l -> ()
    | Some _ -> await ()
  in
  await ();
  { pid; socket; out }

(* A field of /proc/<pid>/status, in MB. *)
let status_mb t field =
  let lines =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" t.pid)
      In_channel.input_all
    |> String.split_on_char '\n'
  in
  match List.find_opt (String.starts_with ~prefix:(field ^ ":")) lines with
  | None -> nan
  | Some l ->
      Scanf.sscanf
        (String.sub l (String.length field + 1) (String.length l - String.length field - 1))
        " %d kB" (fun kb -> float_of_int kb /. 1024.0)

let peak_rss_mb t = status_mb t "VmHWM"
let rss_mb t = status_mb t "VmRSS"

let stop t =
  (match Wp_serve.Client.connect ~version:1 t.socket with
  | Ok c ->
      ignore (Wp_serve.Client.call c (Wp_serve.Protocol.Stop { id = 0 }));
      Wp_serve.Client.close c
  | Error _ -> ( try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let _, status = Unix.waitpid [] t.pid in
  close_in_noerr t.out;
  (try Sys.remove t.socket with Sys_error _ -> ());
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "server did not exit cleanly"

(* [f] on a fresh server, which is stopped afterwards whatever [f] does;
   a server left behind by an exception is killed. *)
let with_server w f =
  let t = spawn w in
  match f t with
  | r ->
      stop t;
      r
  | exception e ->
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] t.pid);
      raise e
