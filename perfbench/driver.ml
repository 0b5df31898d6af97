(** The load generator: one process, no threads, two connections — reads
    (timeline scans) go to the compute, writes (subscriptions, posts) to
    the home.

    Ops come from the seeded {!Pequod_apps.Workload.stream}. A {e round}
    takes a batch of ops, pipelines the writes to the home and then the
    reads to the compute, and accounts for every answer:

    - a closed-loop phase sends the next batch of [window] ops as soon as
      the previous one is answered, so it measures throughput;
    - an open-loop phase gives op [i] the send deadline [t0 + i/rate]
      fixed in advance and times each op from that deadline, so a stall
      shows as latency of every op it delays (no coordinated omission).

    Every read is validated against the generator's own acked posts (a
    check of a follower's timeline must show them: read-your-writes).
    With [sessions] every read also demands the session's stamp vector,
    narrowed to the scan's join sources ([Scan_at]).

    When tracing is on, each round records spans in memory around its
    calls into [Net_client.pipeline], the [Message] codec and the
    [Session] bookkeeping; see {!span}. *)

module Graph = Pequod_apps.Social_graph
module Workload = Pequod_apps.Workload
module Twip = Pequod_apps.Twip
module Message = Pequod_proto.Message
module Net_client = Pequod_server_lib.Net_client
module Session = Pequod_server_lib.Session
module Samples = Metrics.Samples

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(** Logical time of the first generated post; preloaded posts sit just
    below it so timeline scans see them. *)
let base_time = 1_000_000

(** One traced interval. Spans of one round share [sp_round]; a span's
    [sp_parent] is the [sp_id] of the span that caused it (0 = none). *)
type span = {
  sp_round : int;
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_t0 : int;  (** monotonic ns *)
  sp_t1 : int;
}

(** What one phase measured. *)
type phase = {
  tally : Metrics.tally;
  read_ms : Samples.t;  (** open loop: read latency from its deadline *)
  write_ms : Samples.t;
  lag_ms : Samples.t;  (** open loop: how late each op was sent *)
  rtt_us : Samples.t;  (** traced: one per pipelined batch *)
  mutable reads_ok : int;
  mutable writes_ok : int;
  mutable pairs : int;  (** pairs returned by answered reads *)
  mutable user_bytes : int;  (** key + value bytes of answered writes *)
  mutable validated : int;  (** reads that had own acked posts to show *)
  mutable stale_reads : int;  (** ... and missed at least one *)
  mutable encode_ns : int;  (** traced: request + response encode *)
  mutable decode_ns : int;
  mutable wire_bytes : int;
  mutable coded_ops : int;
  mutable elapsed_s : float;
  mutable slice_qps : float list;  (** closed loop: answered ops/s of each slice *)
  mutable read_cuts : int list;  (** open loop: where each slice's samples start *)
  mutable write_cuts : int list;
}

let phase () =
  { tally = Metrics.tally (); read_ms = Samples.create (); write_ms = Samples.create ();
    lag_ms = Samples.create (); rtt_us = Samples.create (); reads_ok = 0; writes_ok = 0;
    pairs = 0; user_bytes = 0; validated = 0; stale_reads = 0; encode_ns = 0;
    decode_ns = 0; wire_bytes = 0; coded_ops = 0; elapsed_s = 0.0; slice_qps = [];
    read_cuts = []; write_cuts = [] }

type info =
  | I_post of int * int  (** poster, time: its ack makes it "must be visible" *)
  | I_read of string list  (** timeline keys own acked posts imply *)
  | I_subscribe

type op = { req : Message.request; info : info; bytes : int; deadline : int }

type t = {
  graph : Graph.t;
  stream : Workload.stream;
  home : Net_client.t;
  compute : Net_client.t;
  session : Session.t option;
  own_post : int array;  (** newest acked own post time per poster; 0 = none *)
  last_seen : int array;
  mutable clock : int;
  mutable tracing : bool;
  mutable spans : span list;
  mutable next_id : int;
  mutable round : int;
}

let login_window = 1_000

(** The base rows a run starts from: every subscription of the graph,
    then [posts] posts at the times just below {!base_time}, posters
    drawn by the graph's posting weights. *)
let iter_base_rows ~seed ~graph ~posts f =
  for u = 0 to Graph.nusers graph - 1 do
    let user = Graph.user_name u in
    Graph.iter_following graph u (fun p -> f (Printf.sprintf "s|%s|%s" user (Graph.user_name p)) "1")
  done;
  let rng = Rng.stream ~seed ~index:3 in
  let posting = Rng.Alias.create (Graph.posting_weights graph) in
  for i = 1 to posts do
    let time = base_time - i in
    let poster = Graph.user_name (Rng.Alias.sample posting rng) in
    f (Printf.sprintf "p|%s|%s" poster (Strkey.encode_time time)) (Twip.tweet_text poster time)
  done

let create ~graph ~seed ~mix ~sessions ~home_addr ~compute_addr =
  let rng = Rng.stream ~seed ~index:1 in
  let stream = Workload.stream ~rng ~graph ~mix ~first_time:base_time () in
  let config = { Net_client.default_config with call_timeout = 5.0 } in
  let home = Cluster.client_of ~config home_addr in
  let nusers = Graph.nusers graph in
  { graph; stream; home; compute = Cluster.client_of ~config compute_addr;
    session = (if sessions then Some (Session.create ~max_entries:512 home) else None);
    own_post = Array.make nusers 0; last_seen = Array.make nusers 0;
    clock = base_time; tracing = false; spans = []; next_id = 1; round = 0 }

let close t =
  Net_client.close t.home;
  Net_client.close t.compute

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let span t ~parent name f =
  if not t.tracing then f 0
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let t0 = now_ns () in
    let finish () =
      t.spans <-
        { sp_round = t.round; sp_id = id; sp_parent = parent; sp_name = name; sp_t0 = t0;
          sp_t1 = now_ns () }
        :: t.spans
    in
    match f id with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)

(* A scan of [u]'s timeline depends only on u's subscription slice and
   the post slices of users u follows: demanding just those entries of
   the session vector is as sound as demanding all of it. *)
let demand t session u =
  match Session.stamp session with
  | [] -> []
  | stamp ->
    let user = Graph.user_name u in
    let s_lo = "s|" ^ user ^ "|" and s_hi = "s|" ^ user ^ "}" in
    let posts = ref [] in
    Graph.iter_following t.graph u (fun p ->
        if t.own_post.(p) > 0 then begin
          let name = Graph.user_name p in
          posts := ("p|" ^ name ^ "|", "p|" ^ name ^ "}") :: !posts
        end);
    let inter lo hi lo' hi' = String.compare lo hi' < 0 && String.compare lo' hi < 0 in
    List.filter
      (fun (table, lo, hi, _) ->
        match table with
        | "s" -> inter lo hi s_lo s_hi
        | "p" -> List.exists (fun (lo', hi') -> inter lo hi lo' hi') !posts
        | _ -> true)
      stamp

let read_op t ~parent u ~since ~deadline =
  let user = Graph.user_name u in
  let lo = Printf.sprintf "t|%s|%s" user (Strkey.encode_time since) in
  let hi = Printf.sprintf "t|%s}" user in
  let req =
    match t.session with
    | None -> Message.Scan { lo; hi }
    | Some session -> (
      match span t ~parent "session.demand" (fun _ -> demand t session u) with
      | [] -> Message.Scan { lo; hi }
      | min -> Message.Scan_at { lo; hi; min })
  in
  let expected = ref [] in
  Graph.iter_following t.graph u (fun p ->
      let time = t.own_post.(p) in
      if time > 0 && time >= since then
        expected :=
          Printf.sprintf "t|%s|%s|%s" user (Strkey.encode_time time) (Graph.user_name p)
          :: !expected);
  { req; info = I_read !expected; bytes = 0; deadline }

let make_op t ~parent ~deadline = function
  | Workload.Login u ->
    read_op t ~parent u ~since:(max 0 (t.clock - login_window)) ~deadline
  | Workload.Check u ->
    let since = t.last_seen.(u) + 1 in
    t.last_seen.(u) <- t.clock;
    read_op t ~parent u ~since ~deadline
  | Workload.Subscribe (u, p) ->
    let key = Printf.sprintf "s|%s|%s" (Graph.user_name u) (Graph.user_name p) in
    { req = Message.Put (key, "1"); info = I_subscribe; bytes = String.length key + 1; deadline }
  | Workload.Post (p, time) ->
    t.clock <- max t.clock time;
    let poster = Graph.user_name p in
    let key = Printf.sprintf "p|%s|%s" poster (Strkey.encode_time time) in
    let value = Twip.tweet_text poster time in
    { req = Message.Put (key, value); info = I_post (p, time);
      bytes = String.length key + String.length value; deadline }

let is_read op = match op.info with I_read _ -> true | I_post _ | I_subscribe -> false

(* The codec, timed outside-in: the client's request encode and response
   decode plus the server's request decode and response encode, on this
   batch's actual messages. *)
let time_codec t ph ~parent reqs resps =
  let enc = ref 0 and dec = ref 0 and bytes = ref 0 in
  let timed acc f =
    let t0 = now_ns () in
    let v = f () in
    acc := !acc + (now_ns () - t0);
    v
  in
  span t ~parent "proto.codec" (fun _ ->
      List.iter2
        (fun req resp ->
          let rq = timed enc (fun () -> Message.encode_request req) in
          ignore (timed dec (fun () -> Message.decode_request rq));
          let rs = timed enc (fun () -> Message.encode_response resp) in
          ignore (timed dec (fun () -> Message.decode_response rs));
          bytes := !bytes + String.length rq + String.length rs)
        reqs resps);
  ph.encode_ns <- ph.encode_ns + !enc;
  ph.decode_ns <- ph.decode_ns + !dec;
  ph.wire_bytes <- ph.wire_bytes + !bytes;
  ph.coded_ops <- ph.coded_ops + List.length reqs

let settle t ph ~parent ~timed op resp t_resp =
  let lat_ms = float_of_int (t_resp - op.deadline) /. 1e6 in
  let outcome =
    match (resp, op.info) with
    | Message.Pairs pairs, I_read expected ->
      ph.reads_ok <- ph.reads_ok + 1;
      ph.pairs <- ph.pairs + List.length pairs;
      if expected <> [] then begin
        ph.validated <- ph.validated + 1;
        if not (List.for_all (fun k -> List.mem_assoc k pairs) expected) then
          ph.stale_reads <- ph.stale_reads + 1
      end;
      if timed then Samples.add ph.read_ms lat_ms;
      Metrics.Answered
    | (Message.Done | Message.Stamps _), (I_post _ | I_subscribe) ->
      (match op.info with
      | I_post (p, time) -> t.own_post.(p) <- max t.own_post.(p) time
      | I_read _ | I_subscribe -> ());
      (match (resp, t.session) with
      | Message.Stamps acked, Some session ->
        span t ~parent "session.ack" (fun _ -> Session.with_at_least session acked)
      | _ -> ());
      ph.writes_ok <- ph.writes_ok + 1;
      ph.user_bytes <- ph.user_bytes + op.bytes;
      if timed then Samples.add ph.write_ms lat_ms;
      Metrics.Answered
    | Message.Stale _, _ -> Metrics.Stale_answer
    | _ -> Metrics.Error_answer
  in
  Metrics.record ph.tally outcome

(* one pipelined batch to one server *)
let send t ph ~parent ~timed client ops =
  if ops <> [] then begin
    let reqs = List.map (fun op -> op.req) ops in
    let t0 = now_ns () in
    if timed then
      List.iter (fun op -> Samples.add ph.lag_ms (float_of_int (t0 - op.deadline) /. 1e6)) ops;
    match
      span t ~parent "net.pipeline" (fun _ -> Net_client.pipeline client reqs)
    with
    | resps ->
      let t_resp = now_ns () in
      if t.tracing then begin
        Samples.add ph.rtt_us (float_of_int (t_resp - t0) /. 1e3);
        time_codec t ph ~parent reqs resps
      end;
      List.iter2 (fun op resp -> settle t ph ~parent ~timed op resp t_resp) ops resps
    | exception Net_client.Net_error msg ->
      let outcome = Metrics.transport_outcome msg in
      List.iter (fun _ -> Metrics.record ph.tally outcome) ops
  end

(* one round: writes to the home, then reads to the compute *)
let round t ph ~timed gen =
  t.round <- t.round + 1;
  span t ~parent:0 "round" (fun parent ->
      let ops = gen ~parent in
      let reads, writes = List.partition is_read ops in
      send t ph ~parent ~timed t.home writes;
      send t ph ~parent ~timed t.compute reads)

(** Closed loop at pipeline depth [window] for [seconds]: one slice. *)
let closed t ph ~window ~seconds =
  let t0 = now_ns () in
  let ops0 = ph.reads_ok + ph.writes_ok in
  let stop = t0 + int_of_float (seconds *. 1e9) in
  while now_ns () < stop do
    round t ph ~timed:false (fun ~parent ->
        let deadline = now_ns () in
        List.init window (fun _ -> make_op t ~parent ~deadline (Workload.next t.stream)))
  done;
  let elapsed = float_of_int (now_ns () - t0) /. 1e9 in
  ph.elapsed_s <- ph.elapsed_s +. elapsed;
  ph.slice_qps <- float_of_int (ph.reads_ok + ph.writes_ok - ops0) /. elapsed :: ph.slice_qps

(** Open loop at [rate] ops/s for [seconds]; at most [cap] due ops go
    out in one round. *)
let open_loop t ph ~rate ~seconds ~cap =
  ph.read_cuts <- Samples.count ph.read_ms :: ph.read_cuts;
  ph.write_cuts <- Samples.count ph.write_ms :: ph.write_cuts;
  let t0 = now_ns () in
  let total = int_of_float (rate *. seconds) in
  let due i = t0 + int_of_float (float_of_int i *. 1e9 /. rate) in
  let issued = ref 0 in
  while !issued < total do
    let wait = due !issued - now_ns () in
    if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
    let now = now_ns () in
    round t ph ~timed:true (fun ~parent ->
        let batch = ref [] and n = ref 0 in
        while !issued < total && !n < cap && due !issued <= now do
          batch := make_op t ~parent ~deadline:(due !issued) (Workload.next t.stream) :: !batch;
          incr issued;
          incr n
        done;
        List.rev !batch)
  done;
  ph.elapsed_s <- ph.elapsed_s +. (float_of_int (now_ns () - t0) /. 1e9)

(** Check every active user's whole timeline once, [window] scans per
    batch: the warm-up that materializes the timeline working set, so
    that every later check is incremental. *)
let touch_active t ph ~window =
  let active = t.stream.Workload.st_active in
  let n = Array.length active in
  let i = ref 0 in
  while !i < n do
    round t ph ~timed:false (fun ~parent ->
        let k = min window (n - !i) in
        let ops =
          List.init k (fun j ->
              make_op t ~parent ~deadline:(now_ns ()) (Workload.Check active.(!i + j)))
        in
        i := !i + k;
        ops)
  done

(** Host speed: iterations per microsecond of a fixed CPU-bound loop
    (hash-table updates and integer mixing) run for [ms] milliseconds
    in this process while the servers are idle. *)
let calibrate ~ms =
  let h = Hashtbl.create 4096 in
  let iters = ref 0 and acc = ref 0 in
  let t0 = now_ns () in
  let stop = t0 + (ms * 1_000_000) in
  while now_ns () < stop do
    for i = 1 to 1000 do
      let k = (!iters + i) land 4095 in
      acc := !acc + (k lxor (!acc lsr 3));
      Hashtbl.replace h k !acc
    done;
    iters := !iters + 1000
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int !iters /. (float_of_int (now_ns () - t0) /. 1e3)

(** Dump the recorded spans as tab-separated lines (round, id, parent,
    name, start ns, duration ns). *)
let write_spans t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" s.sp_round s.sp_id s.sp_parent s.sp_name
        s.sp_t0 (s.sp_t1 - s.sp_t0))
    (List.rev t.spans);
  close_out oc
