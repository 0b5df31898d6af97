(** The cluster under test: one home and one compute [pequod_server],
    forked from the repository's own binary and driven only over TCP.

    The home owns the base tables ([s] subscriptions, [p] posts); the
    compute runs the Twip timeline join and fetches+subscribes what it
    needs from the home. Routing is either static ([--partition] routes
    naming the home) or the partition directory (the home is the
    [--dir-host] seed, the compute a [--directory] follower). Each
    server's stdout and stderr go to a log file in the run directory, so
    a chatty server can never block on a full pipe. *)

module Message = Pequod_proto.Message
module Net_client = Pequod_server_lib.Net_client
module Spawn = Pequod_load_lib.Spawn

type routing = Static | Directory

type layout = {
  routing : routing;
  durable_home : bool;  (** home logs to a WAL ([--data-dir], interval sync) *)
  compute_memory_limit : int option;  (** bytes; [None] = unbounded *)
}

type server = { pid : int; addr : string; log : string }
type t = { home : server; compute : server }

let client_of ?config addr = Pequod_load_lib.Coord.client_of ?config addr

(* whole file, or "" when unreadable; reads to EOF because /proc files
   report no length *)
let read_file path =
  match open_in_bin path with
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
  | exception Sys_error _ -> ""

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Fork one server with its output in [log], and wait for the
   "listening on port N" line. *)
let boot ~exe ~log args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd in
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec wait () =
    match Spawn.digits_after (read_file log) "listening on port " with
    | Some port -> { pid; addr = Printf.sprintf "127.0.0.1:%d" port; log }
    | None ->
      let exited = match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> false | _ -> true in
      if exited || Unix.gettimeofday () > deadline then begin
        if not exited then kill pid;
        failwith (Printf.sprintf "%s did not start:\n%s" exe (read_file log))
      end;
      Unix.sleepf 0.005;
      wait ()
  in
  wait ()

(* a directory follower routes nothing until it has the seed's epoch *)
let wait_epoch addr =
  let c = client_of addr in
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    let epoch =
      match Net_client.call c Message.Dir_get with
      | Message.Dir_state { epoch; _ } -> epoch
      | _ -> 0
      | exception Net_client.Net_error _ -> 0
    in
    if epoch < 1 then
      if Unix.gettimeofday () > deadline then failwith (addr ^ " never adopted the directory")
      else begin
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ();
  Net_client.close c

let shutdown t =
  kill t.compute.pid;
  kill t.home.pid

(** Boot the two servers of [layout] with their files under [dir]. *)
let start ~exe ~dir layout =
  let home_args =
    [ "--port"; "0" ]
    @ (match layout.routing with
      | Static -> []
      | Directory -> [ "--dir-host"; "--partition"; "s"; "--partition"; "p" ])
    @
    if layout.durable_home then [ "--data-dir"; Filename.concat dir "home-data" ]
    else []
  in
  let home = boot ~exe ~log:(Filename.concat dir "home.log") home_args in
  match
    let compute_args =
      [ "--port"; "0"; "--join"; Spawn.timeline_join;
        (* the heartbeat walks every live subscription; keep it out of
           a ten-second window *)
        "--sub-check-every"; "30" ]
      @ (match layout.routing with
        | Static ->
          [ "--partition"; "s@" ^ home.addr; "--partition"; "p@" ^ home.addr ]
        | Directory -> [ "--directory"; home.addr ])
      @
      match layout.compute_memory_limit with
      | Some b -> [ "--memory-limit"; string_of_int b ]
      | None -> []
    in
    let compute = boot ~exe ~log:(Filename.concat dir "compute.log") compute_args in
    if layout.routing = Directory then wait_epoch compute.addr;
    { home; compute }
  with
  | t -> t
  | exception e ->
    kill home.pid;
    raise e

(* ------------------------------------------------------------------ *)
(* Reading the servers from outside                                    *)

(** One [Stats_full] snapshot of a server (a control RPC: call it only
    outside the timed window). *)
let stats addr =
  let c = client_of addr in
  Fun.protect
    ~finally:(fun () -> Net_client.close c)
    (fun () ->
      match Net_client.call c Message.Stats_full with
      | Message.Metrics m -> m
      | _ -> failwith ("unexpected Stats_full answer from " ^ addr))

let counter snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Counter n) | Some (Obs.Gauge n) -> n
  | Some (Obs.Histogram h) -> h.Obs.Histogram.count
  | None -> 0

let histogram snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Histogram h) -> Some h
  | _ -> None

(** Wait (at most [timeout] seconds) until the compute has applied
    every notification the home has pushed, so that a backlog left by a
    closed-loop burst is not charged to the next open-loop slice. *)
let drain ?(timeout = 2.0) t =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let pushed = counter (stats t.home.addr) "peer.notify.out" in
    if counter (stats t.compute.addr) "peer.notify.in" < pushed && Unix.gettimeofday () < deadline
    then begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

(** Linux reports [/proc] CPU times in clock ticks of 1/100 s
    ([USER_HZ], fixed by the kernel ABI). *)
let ticks_per_s = 100.0

(** User + system CPU seconds a process has used so far. *)
let cpu_seconds pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  match String.rindex_opt stat ')' with
  | None -> 0.0
  | Some i ->
    (* fields after "(comm)": state is field 3, utime 14, stime 15 *)
    let rest = String.split_on_char ' ' (String.sub stat (i + 2) (String.length stat - i - 2)) in
    let field n = float_of_string (List.nth rest (n - 3)) in
    (field 14 +. field 15) /. ticks_per_s

(** Peak resident set ([VmHWM]) of a process, in MB (2^20 bytes). *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let kb =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
        | _ -> None)
      (String.split_on_char '\n' status)
  in
  float_of_int (Option.value kb ~default:0) /. 1024.0
