(** One load worker: an open-loop, deadline-paced client of the live
    cluster.

    The worker draws ops on demand from a seeded {!Workload.stream}
    (worker [i] of [n] uses [Rng.stream ~seed ~index:i], so the fleet's
    op sequence is a pure function of [seed] and [n]) and maps each op
    onto the wire:

    - [Login]/[Check] → [Scan] of the user's timeline on the compute
      server owning that user ([u mod computes]);
    - [Subscribe]/[Post] → [Put] on the home server owning the written
      key's user slice.

    Pacing is open-loop: op [i]'s send deadline is [t0 + i/rate], fixed
    in advance; when the cluster falls behind, the backlog shows up as
    latency instead of silently slowing the arrival process (no
    coordinated omission). Consecutive due ops are pipelined per
    destination, bounded by [w_window]. With [w_rate = 0] the worker is
    closed-loop at pipeline depth [w_window] — as fast as the cluster
    will answer.

    Latency per op is measured from its deadline (or from the pipeline
    write, when unpaced) to the arrival of its response batch, into the
    per-class log histograms [load.login.us], [load.check.us],
    [load.subscribe.us] and [load.post.us] of the worker's registry.
    [load.ops] counts answered ops, [load.errors] [Error] responses
    (e.g. a scan across a dead home's range), [load.failed] ops lost to
    connection failures.

    Freshness is validated on every timeline read: a check that misses
    a timeline entry implied by one of this worker's own {e acked}
    posts counts in [load.stale_reads] (seen entries in
    [load.fresh_reads]) — the read-your-writes anomaly measured
    identically with and without [w_sessions], so the two runs'
    [derived.stale_read_rate] difference is exactly what the stamp
    vector buys. *)

module Social_graph = Pequod_apps.Social_graph
module Workload = Pequod_apps.Workload
module Twip = Pequod_apps.Twip
module Message = Pequod_proto.Message
module Net_client = Pequod_server_lib.Net_client
module Session = Pequod_server_lib.Session

type config = {
  w_index : int;  (** this worker's rank *)
  w_nworkers : int;
  w_seed : int;
  w_quota : int;  (** ops this worker must complete *)
  w_rate : float;  (** target ops/sec for this worker; 0 = closed-loop *)
  w_window : int;  (** pipeline depth *)
  w_login_window : int;  (** logical time a Login scans back *)
  w_active : float;
  w_sessions : bool;
      (** thread a {!Session} stamp vector through every worker
          connection: write acks accumulate, reads go out as [Scan_at]
          demanding the vector (read-your-writes) *)
}

let base_time = 1_000_000

let classes = [| "load.login.us"; "load.check.us"; "load.subscribe.us"; "load.post.us" |]

let class_of = function
  | Workload.Login _ -> 0
  | Workload.Check _ -> 1
  | Workload.Subscribe _ -> 2
  | Workload.Post _ -> 3

(* What one answered op means for session bookkeeping: a post remembers
   its (poster, time) so later checks expect it on follower timelines; a
   check carries the timeline keys this worker's own acked posts must
   have produced. Freshness validation is identical in both modes — the
   [--sessions] flag changes only whether reads demand the stamp vector,
   so the measured stale-read rate isolates what sessions buy. *)
type op_info =
  | I_post of int * int  (* poster, time: ack promotes to "must be visible" *)
  | I_check of string list  (* timeline keys an acked own-post implies *)
  | I_other

let run cfg ~(topo : Spawn.topology) ~graph obs =
  let nusers = Social_graph.nusers graph in
  let rng = Rng.stream ~seed:cfg.w_seed ~index:cfg.w_index in
  let st =
    Workload.stream ~rng ~graph ~active_fraction:cfg.w_active
      ~first_time:(base_time + cfg.w_index) ~time_stride:cfg.w_nworkers ()
  in
  (* destination table: homes first, computes after *)
  let clients =
    Array.map (Net_client.create ~obs) (Array.append topo.home_addrs topo.compute_addrs)
  in
  let ndests = Array.length clients in
  let hists = Array.map (Obs.histogram obs) classes in
  let ops_done = Obs.counter obs "load.ops" in
  let errors = Obs.counter obs "load.errors" in
  let failed = Obs.counter obs "load.failed" in
  let entries = Obs.counter obs "load.entries" in
  let stale_reads = Obs.counter obs "load.stale_reads" in
  let fresh_reads = Obs.counter obs "load.fresh_reads" in
  let last_seen = Array.make nusers 0 in
  (* read-your-writes bookkeeping: the newest own post per poster whose
     ack arrived (0 = none); a later check of a follower must see it *)
  let own_post = Array.make nusers 0 in
  (* one session per worker: the vector accumulates across every
     destination, because the anomaly under test is exactly a write
     through one server read back through another. The pipelined
     requests are built/folded by hand around the session's vector
     (Session.stamp / with_at_least) to keep the batching. *)
  let session = Session.create ~max_entries:512 clients.(0) in
  let clock = ref base_time in
  (* Demand narrowing: a scan of [u]'s timeline is affected only by
     writes to its join sources — u's own subscription slice and the
     post slices of users u follows. Demanding the session's full
     vector is equally sound but pays wire and stamp-check cost
     proportional to every write this worker ever made; the narrowed
     demand is equivalent for this read, because entries outside the
     sources cannot change the scanned pairs. *)
  let relevant_stamp u =
    match Session.stamp session with
    | [] -> []
    | stamp ->
      let user = Social_graph.user_name u in
      let s_lo = "s|" ^ user ^ "|" and s_hi = "s|" ^ user ^ "}" in
      let post_slices = ref [] in
      Social_graph.iter_following graph u (fun p ->
          if own_post.(p) > 0 then begin
            let name = Social_graph.user_name p in
            post_slices := ("p|" ^ name ^ "|", "p|" ^ name ^ "}") :: !post_slices
          end);
      let inter lo hi lo' hi' =
        String.compare lo hi' < 0 && String.compare lo' hi < 0
      in
      List.filter
        (fun (table, lo, hi, _) ->
          match table with
          | "s" -> inter lo hi s_lo s_hi
          | "p" -> List.exists (fun (lo', hi') -> inter lo hi lo' hi') !post_slices
          | _ -> true)
        stamp
  in
  let stamped_scan u lo hi =
    if not cfg.w_sessions then Message.Scan { lo; hi }
    else
      match relevant_stamp u with
      | [] -> Message.Scan { lo; hi }
      | min -> Message.Scan_at { lo; hi; min }
  in
  let scan_user u ~since =
    let user = Social_graph.user_name u in
    let lo = Printf.sprintf "t|%s|%s" user (Strkey.encode_time since) in
    (topo.nhomes + Spawn.compute_of topo u, stamped_scan u lo (Printf.sprintf "t|%s}" user))
  in
  (* timeline keys of this worker's acked posts that a scan of [u]'s
     timeline from [since] must include: u's preloaded follows only *)
  let expected_keys u ~since =
    let user = Social_graph.user_name u in
    let acc = ref [] in
    Social_graph.iter_following graph u (fun p ->
        let t = own_post.(p) in
        if t >= since then
          acc :=
            Printf.sprintf "t|%s|%s|%s" user (Strkey.encode_time t)
              (Social_graph.user_name p)
            :: !acc);
    !acc
  in
  let request_of op =
    match op with
    | Workload.Login u ->
      let since = max 0 (!clock - cfg.w_login_window) in
      let dest, req = scan_user u ~since in
      (dest, req, I_check (expected_keys u ~since))
    | Workload.Check u ->
      let since = last_seen.(u) + 1 in
      let dest, req = scan_user u ~since in
      last_seen.(u) <- !clock;
      (dest, req, I_check (expected_keys u ~since))
    | Workload.Subscribe (u, p) ->
      ( Spawn.home_of topo u,
        Message.Put
          (Printf.sprintf "s|%s|%s" (Social_graph.user_name u) (Social_graph.user_name p), "1"),
        I_other )
    | Workload.Post (p, time) ->
      clock := max !clock time;
      let poster = Social_graph.user_name p in
      ( Spawn.home_of topo p,
        Message.Put
          ( Printf.sprintf "p|%s|%s" poster (Strkey.encode_time time),
            Twip.tweet_text poster time ),
        I_post (p, time) )
  in
  (* per-destination batch buffers, reused across rounds *)
  let dest_reqs = Array.make ndests [] in
  let dest_meta = Array.make ndests [] in
  let t0 = Unix.gettimeofday () in
  let issued = ref 0 in
  while !issued < cfg.w_quota do
    (* sleep to the next deadline, then gather everything already due *)
    let due i = t0 +. (float_of_int i /. cfg.w_rate) in
    if cfg.w_rate > 0.0 then begin
      let wait = due !issued -. Unix.gettimeofday () in
      if wait > 0.0 then Unix.sleepf wait
    end;
    let now = Unix.gettimeofday () in
    Array.fill dest_reqs 0 ndests [];
    Array.fill dest_meta 0 ndests [];
    let n = ref 0 in
    while
      !issued < cfg.w_quota && !n < cfg.w_window
      && (!n = 0 || cfg.w_rate <= 0.0 || due !issued <= now)
    do
      let op = Workload.next st in
      let dest, req, info = request_of op in
      let deadline = if cfg.w_rate > 0.0 then due !issued else now in
      dest_reqs.(dest) <- req :: dest_reqs.(dest);
      dest_meta.(dest) <- (class_of op, deadline, info) :: dest_meta.(dest);
      incr issued;
      incr n
    done;
    for dest = 0 to ndests - 1 do
      match List.rev dest_reqs.(dest) with
      | [] -> ()
      | reqs -> (
        let meta = List.rev dest_meta.(dest) in
        let t_send = Unix.gettimeofday () in
        match Net_client.pipeline clients.(dest) reqs with
        | responses ->
          let t_resp = Unix.gettimeofday () in
          List.iter2
            (fun (cls, deadline, info) resp ->
              let start = if cfg.w_rate > 0.0 then deadline else t_send in
              Obs.Histogram.observe hists.(cls)
                (int_of_float ((t_resp -. start) *. 1e6));
              Obs.Counter.incr ops_done;
              match resp with
              | Message.Error _ -> Obs.Counter.incr errors
              | Message.Stale _ ->
                (* the server's bounded wait expired: an honest typed
                   failure where baseline mode would have served stale *)
                Obs.Counter.incr stale_reads
              | Message.Stamps acked ->
                (match info with
                | I_post (p, time) -> own_post.(p) <- max own_post.(p) time
                | I_check _ | I_other -> ());
                if cfg.w_sessions then Session.with_at_least session acked
              | Message.Done ->
                (match info with
                | I_post (p, time) -> own_post.(p) <- max own_post.(p) time
                | I_check _ | I_other -> ())
              | Message.Pairs pairs ->
                Obs.Counter.add entries (List.length pairs);
                (match info with
                | I_check expected ->
                  List.iter
                    (fun key ->
                      if List.mem_assoc key pairs then Obs.Counter.incr fresh_reads
                      else Obs.Counter.incr stale_reads)
                    expected
                | I_post _ | I_other -> ())
              | _ -> ())
            meta responses
        | exception Net_client.Net_error _ ->
          (* connection-level loss: the ops got no answer; the client
             dials again on the next round *)
          Obs.Counter.add failed (List.length reqs))
    done
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Array.iter Net_client.close clients;
  elapsed
