(** The load-harness coordinator: owns the cluster, the graph, the
    worker fleet and the aggregation, and emits [BENCH_cluster.json].

    Phases:

    + generate the CSR social graph (1M+ users fit: flat int arrays);
    + spawn the [homes + computes] server cluster ({!Spawn});
    + preload the subscription table (and optionally a post corpus)
      into the homes with pipelined [Put_batch] frames;
    + fork [workers] driver processes ({!Driver}), each with an
      independent [Rng.stream] substream and a report pipe;
    + reap the workers, merge their counter totals and full-resolution
      latency histograms ({!Obs.Histogram.merge}) into one registry;
    + read the servers' [peer.*] counters over [Stats_full] to compute
      the subscription-traffic share;
    + stamp and write [BENCH_cluster.json] ({!Benchstamp}) and print a
      summary table.

    The op quota can be clamped by the [PEQUOD_LOAD_QUOTA] environment
    variable, which is how CI runs the whole path in seconds
    ([make cluster-smoke]) while [make cluster-bench] runs the full
    configured scale. *)

module Social_graph = Pequod_apps.Social_graph
module Message = Pequod_proto.Message
module Net_client = Pequod_server_lib.Net_client

type config = {
  users : int;
  ops : int;  (** total, split across workers; PEQUOD_LOAD_QUOTA overrides *)
  workers : int;
  homes : int;
  computes : int;
  shards : int;
      (** > 0 replaces the homes+computes topology with one
          shard-per-core server ([pequod_server --shards N]); >= 2 also
          runs a [--shards 1] pass first for the speedup baseline *)
  avg_follows : int;
  active : float;
  rate : float;  (** total target ops/sec; 0 = closed loop *)
  window : int;  (** per-worker pipeline depth *)
  login_window : int;
  seed : int;
  preload_posts : int;
  memory_limit : int option;  (** compute-server eviction cap *)
  migrate_mid_run : bool;
      (** spawn the cluster directory-routed and live-migrate home 0's
          [p] slice to home 1 mid-run, probing read latency through the
          handoff (needs [homes >= 2], incompatible with [shards]) *)
  sessions : bool;
      (** workers thread a {!Session} stamp vector: reads demand the
          worker's accumulated write stamps ([derived.stale_read_rate]
          must come out 0; the unstamped baseline measures whatever
          push lag produces) *)
  out : string;
  server_exe : string option;
}

let default =
  { users = 1_000_000; ops = 1_000_000; workers = 4; homes = 2; computes = 2; shards = 0;
    avg_follows = 8; active = 0.7; rate = 0.0; window = 16; login_window = 1_000;
    seed = 42; preload_posts = 0; memory_limit = None; migrate_mid_run = false;
    sessions = false; out = "BENCH_cluster.json"; server_exe = None }

let quota_env = "PEQUOD_LOAD_QUOTA"

let effective_ops cfg =
  match Sys.getenv_opt quota_env with
  | Some s -> (
    match int_of_string_opt s with
    | Some q when q > 0 -> min q cfg.ops
    | _ -> cfg.ops)
  | None -> cfg.ops

let client_of ?obs ?config addr = Net_client.create ?obs ?config addr

(* ------------------------------------------------------------------ *)
(* Preload                                                             *)

let batch_size = 1_000

(** Bulk-load the social graph's subscription rows (and an optional
    pre-experiment post corpus with times [0..preload_posts)) into the
    owning homes, one pipelined [Put_batch] per [batch_size] rows.
    Returns total rows loaded. *)
let preload cfg ~(topo : Spawn.topology) ~graph =
  let clients = Array.map (fun a -> client_of a) topo.home_addrs in
  let pending = Array.make topo.nhomes [] in
  let counts = Array.make topo.nhomes 0 in
  let total = ref 0 in
  let flush h =
    if counts.(h) > 0 then begin
      (match Net_client.call clients.(h) (Message.Put_batch (List.rev pending.(h))) with
      | Message.Done | Message.Stamps _ -> ()
      | Message.Error msg -> failwith ("preload put_batch failed: " ^ msg)
      | _ -> failwith "preload: unexpected put_batch response");
      total := !total + counts.(h);
      pending.(h) <- [];
      counts.(h) <- 0
    end
  in
  let put h k v =
    pending.(h) <- (k, v) :: pending.(h);
    counts.(h) <- counts.(h) + 1;
    if counts.(h) >= batch_size then flush h
  in
  for u = 0 to Social_graph.nusers graph - 1 do
    let user = Social_graph.user_name u in
    let h = Spawn.home_of topo u in
    Social_graph.iter_following graph u (fun p ->
        put h (Printf.sprintf "s|%s|%s" user (Social_graph.user_name p)) "1")
  done;
  if cfg.preload_posts > 0 then begin
    let rng = Rng.stream ~seed:cfg.seed ~index:(max_int asr 1) in
    let posting = Rng.Alias.create (Social_graph.posting_weights graph) in
    for time = 0 to cfg.preload_posts - 1 do
      let p = Rng.Alias.sample posting rng in
      let poster = Social_graph.user_name p in
      put (Spawn.home_of topo p)
        (Printf.sprintf "p|%s|%s" poster (Strkey.encode_time time))
        (Pequod_apps.Twip.tweet_text poster time)
    done
  end;
  Array.iteri (fun h _ -> flush h) clients;
  Array.iter Net_client.close clients;
  !total

(* ------------------------------------------------------------------ *)
(* Worker fleet                                                        *)

let fork_workers cfg ~ops ~topo ~graph =
  let per = ops / cfg.workers in
  List.init cfg.workers (fun i ->
      let quota = if i = 0 then per + (ops mod cfg.workers) else per in
      let wcfg =
        { Driver.w_index = i; w_nworkers = cfg.workers; w_seed = cfg.seed; w_quota = quota;
          w_rate = cfg.rate /. float_of_int cfg.workers; w_window = cfg.window;
          w_login_window = cfg.login_window; w_active = cfg.active;
          w_sessions = cfg.sessions }
      in
      let r, w = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
        Unix.close r;
        let obs = Obs.create () in
        (try
           let elapsed = Driver.run wcfg ~topo ~graph obs in
           Report.write w ~elapsed obs
         with e -> Report.write_error w (Printexc.to_string e));
        (try Unix.close w with Unix.Unix_error _ -> ());
        Unix._exit 0
      | pid ->
        Unix.close w;
        (pid, r))

(* ------------------------------------------------------------------ *)
(* Mid-run migration                                                   *)

type migrate_stats = {
  mg_keys_moved : int;
  mg_delta_replayed : int;
  mg_probe_errors : int;
  mg_phases : (string * Obs.Histogram.snapshot) list;
      (** probe-latency snapshots keyed ["before"], ["during"], ["after"] *)
}

(* probes bracketing the handoff on each side, and their spacing *)
let probes_per_phase = 50
let probe_gap = 0.01
let migrate_deadline = 600.0

let mlog fmt = Printf.eprintf ("pequod-load: " ^^ fmt ^^ "\n%!")

(** Live-migrate home 0's [p] slice to home 1 while the workers drive
    load, measuring what a reader of the moving range sees. Probes are
    short-timeout [Scan]s of user 0's posts sent to the {e source} home
    — the worst-cased reader: during the copy it talks to the blocked
    owner, and after the epoch flip it pays the forward to the
    destination. The migration itself is a blocking [Migrate] call (it
    returns only once the handoff completes) run in a forked child so
    probing continues; the child ships [keys_moved]/[delta_replayed]
    back over a pipe. *)
let run_migration ~(topo : Spawn.topology) =
  let cut = Social_graph.user_name topo.chunk.(1) in
  let probe_lo = "p|" ^ Social_graph.user_name 0 ^ "|" in
  let probe_hi = "p|" ^ Social_graph.user_name 0 ^ "}" in
  let source = topo.home_addrs.(0) and dest = topo.home_addrs.(1) in
  let obs = Obs.create () in
  let errors = ref 0 in
  let probec =
    client_of ~config:{ Net_client.default_config with call_timeout = 5.0 } source
  in
  let probe hist =
    let t0 = Unix.gettimeofday () in
    (match Net_client.call probec (Message.Scan { lo = probe_lo; hi = probe_hi }) with
    | Message.Pairs _ ->
      Obs.Histogram.observe hist (int_of_float ((Unix.gettimeofday () -. t0) *. 1_000_000.))
    | _ -> incr errors
    | exception Net_client.Net_error _ -> incr errors);
    Unix.sleepf probe_gap
  in
  let phase name n =
    let hist = Obs.histogram obs (Printf.sprintf "probe.%s.us" name) in
    for _ = 1 to n do
      probe hist
    done
  in
  phase "before" probes_per_phase;
  mlog "migrating p slice [p| .. p|%s) from %s to %s mid-run..." cut source dest;
  let r, w = Unix.pipe () in
  let mig_pid = Unix.fork () in
  if mig_pid = 0 then begin
    Unix.close r;
    let reply =
      try
        let c =
          client_of
            ~config:{ Net_client.default_config with call_timeout = migrate_deadline }
            source
        in
        match
          Net_client.call c (Message.Migrate { table = "p"; lo = "p|"; hi = "p|" ^ cut; dest })
        with
        | Message.Pairs stats ->
          Printf.sprintf "ok %s %s"
            (Option.value (List.assoc_opt "keys_moved" stats) ~default:"0")
            (Option.value (List.assoc_opt "delta_replayed" stats) ~default:"0")
        | Message.Error msg -> "err " ^ msg
        | _ -> "err unexpected migrate response"
      with e -> "err " ^ Printexc.to_string e
    in
    (try ignore (Unix.write_substring w reply 0 (String.length reply))
     with Unix.Unix_error _ -> ());
    Unix._exit 0
  end;
  Unix.close w;
  let during = Obs.histogram obs "probe.during.us" in
  let deadline = Unix.gettimeofday () +. migrate_deadline in
  let rec pump () =
    match Unix.waitpid [ Unix.WNOHANG ] mig_pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill mig_pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] mig_pid);
        failwith "mid-run migration did not complete in time"
      end;
      probe during;
      pump ()
    | _ -> ()
  in
  pump ();
  let buf = Bytes.create 4096 in
  let n = try Unix.read r buf 0 (Bytes.length buf) with Unix.Unix_error _ -> 0 in
  Unix.close r;
  let reply = Bytes.sub_string buf 0 n in
  let keys_moved, delta_replayed =
    match String.split_on_char ' ' reply with
    | [ "ok"; km; dr ] ->
      ( Option.value (int_of_string_opt km) ~default:0,
        Option.value (int_of_string_opt dr) ~default:0 )
    | _ -> failwith ("mid-run migration failed: " ^ reply)
  in
  mlog "migration done: %d keys moved, %d delta notifications replayed" keys_moved
    delta_replayed;
  phase "after" probes_per_phase;
  Net_client.close probec;
  { mg_keys_moved = keys_moved; mg_delta_replayed = delta_replayed;
    mg_probe_errors = !errors;
    mg_phases =
      List.map
        (fun ph -> (ph, Obs.Histogram.snapshot (Obs.histogram obs ("probe." ^ ph ^ ".us"))))
        [ "before"; "during"; "after" ] }

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)

let full_metrics addr =
  let c = client_of addr in
  Fun.protect
    ~finally:(fun () -> try Net_client.close c with _ -> ())
    (fun () ->
      match Net_client.call c Message.Stats_full with
      | Message.Metrics metrics -> metrics
      | _ -> [])

let counter_value metrics name =
  List.fold_left
    (fun acc (n, v) -> match v with Obs.Counter c when n = name -> acc + c | _ -> acc)
    0 metrics

(* One histogram pooled across the servers' Stats_full replies. The
   wire carries only percentile snapshots, not buckets, so cross-server
   percentiles are approximated by count-weighting each server's own
   percentile — exact with one reporting server, and a documented
   approximation (not a true pooled quantile) with several. *)
let hist_pooled metrics name =
  (* the sharded server exposes per-shard histograms as
     shard.<i>.<name>; pool those too *)
  let suffix = "." ^ name in
  let matches n =
    n = name
    || (String.length n > String.length suffix
       && String.equal suffix
            (String.sub n (String.length n - String.length suffix) (String.length suffix)))
  in
  let snaps =
    List.filter_map
      (fun (n, v) ->
        match v with
        | Obs.Histogram s when matches n && s.Obs.Histogram.count > 0 -> Some s
        | _ -> None)
      metrics
  in
  let total = List.fold_left (fun a s -> a + s.Obs.Histogram.count) 0 snaps in
  if total = 0 then None
  else
    let wavg f =
      List.fold_left
        (fun a s -> a +. (float_of_int (f s) *. float_of_int s.Obs.Histogram.count))
        0.0 snaps
      /. float_of_int total
    in
    Some
      ( total,
        wavg (fun s -> s.Obs.Histogram.p50),
        wavg (fun s -> s.Obs.Histogram.p95),
        wavg (fun s -> s.Obs.Histogram.p99) )

(* requests each shard's loop dispatched, off the sharded server's
   merged Stats_full (shard.<i>.ops). A single shard routes nothing and
   publishes no shard.* split, so its whole net.rpcs is the one entry. *)
let per_shard_ops metrics ~shards =
  if shards <= 0 then [||]
  else if shards = 1 then [| counter_value metrics "net.rpcs" |]
  else Array.init shards (fun i -> counter_value metrics (Printf.sprintf "shard.%d.ops" i))

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)

let hist_json snap =
  let open Obs.Histogram in
  Benchstamp.Obj
    [ ("count", Benchstamp.Int snap.count); ("min", Benchstamp.Int snap.min);
      ("max", Benchstamp.Int snap.max); ("p50", Benchstamp.Int snap.p50);
      ("p95", Benchstamp.Int snap.p95); ("p99", Benchstamp.Int snap.p99) ]

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* everything one measured pass produces; [run] compares passes *)
type pass = {
  ps_preload_rows : int;
  ps_wall : float;
  ps_worker_max : float;
  ps_qps : float;
  ps_agg : Obs.t;  (* merged worker registries *)
  ps_fetch_in : int;
  ps_notify_out : int;
  ps_notify_in : int;
  ps_sub_lost : int;
  ps_scan_parked : int;  (* scans parked on missing ranges (async read path) *)
  ps_fetch_coalesced : int;  (* fetches shared by single-flight coalescing *)
  ps_session_reads : int;  (* server-side stamped reads served *)
  ps_stale_waits : int;  (* reads that had to wait/heal for a demanded stamp *)
  ps_stale_errors : int;  (* reads that hit the Stale deadline *)
  (* pooled resolver.fetch.wait_ns: count, ~p50, ~p95, ~p99 (ns) *)
  ps_fetch_wait : (int * float * float * float) option;
  ps_share : float;
  ps_per_shard_ops : int array;  (* empty outside shard-per-core mode *)
  ps_migrate : migrate_stats option;  (* set by [migrate_mid_run] passes *)
}

(** One measured pass: spawn the topology ([shards = 0] is the classic
    homes+computes cluster, [> 0] one shard-per-core server), preload,
    drive the op quota, merge the worker reports and read the servers'
    counters back. The cluster is torn down before returning, so passes
    never share cache state. *)
let run_pass cfg ~graph ~ops ~shards =
  let directory = cfg.migrate_mid_run && shards = 0 in
  let cluster =
    Spawn.start ?server_exe:cfg.server_exe ?memory_limit:cfg.memory_limit ~shards ~directory
      ~nusers:cfg.users ~nhomes:cfg.homes ~ncomputes:cfg.computes ()
  in
  Fun.protect
    ~finally:(fun () -> Spawn.shutdown cluster)
    (fun () ->
      let topo = cluster.Spawn.topology in
      if shards > 0 then
        log "pequod-load: shard-per-core server up (%d shards); preloading graph..." shards
      else
        log "pequod-load: cluster up (%d homes, %d computes%s); preloading graph..." cfg.homes
          cfg.computes
          (if directory then ", directory-routed" else "");
      let t_pre = Unix.gettimeofday () in
      let preload_rows = preload cfg ~topo ~graph in
      log "pequod-load: preloaded %d rows in %.1fs; driving %d ops over %d workers%s..."
        preload_rows
        (Unix.gettimeofday () -. t_pre)
        ops cfg.workers
        (if cfg.rate > 0.0 then Printf.sprintf " at %.0f ops/s" cfg.rate else " (closed loop)");
      let t0 = Unix.gettimeofday () in
      let workers = fork_workers cfg ~ops ~topo ~graph in
      let migrate = if directory then Some (run_migration ~topo) else None in
      let reports =
        List.map
          (fun (pid, r) ->
            let report = Report.read r in
            Unix.close r;
            ignore (Unix.waitpid [] pid);
            report)
          workers
      in
      let wall = Unix.gettimeofday () -. t0 in
      List.iter
        (fun rp ->
          match rp.Report.rp_error with
          | Some msg -> failwith ("load worker failed: " ^ msg)
          | None -> ())
        reports;
      (* merge: counters sum; histograms pool at bucket resolution *)
      let agg = Obs.create () in
      List.iter
        (fun rp ->
          List.iter
            (fun (name, v) -> Obs.Counter.force_add (Obs.counter agg name) v)
            rp.Report.rp_counters;
          List.iter
            (fun (name, d) -> Obs.Histogram.absorb (Obs.histogram agg name) d)
            rp.Report.rp_hists)
        reports;
      let total_ops = Obs.counter_value agg "load.ops" in
      let qps = if wall > 0.0 then float_of_int total_ops /. wall else 0.0 in
      (* server-side counters: one Stats_full per distinct server (the
         sharded server's reply is already merged across its shards).
         peer.* is the §2.4 protocol work — fetches served +
         notifications pushed — between homes and computes, or between
         sibling shards *)
      let stats_addrs =
        if shards > 0 then Array.to_list topo.compute_addrs
        else Array.to_list (Array.append topo.home_addrs topo.compute_addrs)
      in
      let metrics = List.concat_map full_metrics stats_addrs in
      let fetch_in = counter_value metrics "peer.fetch.in" in
      let notify_out = counter_value metrics "peer.notify.out" in
      let peer_msgs = fetch_in + notify_out in
      let share =
        if peer_msgs + total_ops = 0 then 0.0
        else float_of_int peer_msgs /. float_of_int (peer_msgs + total_ops)
      in
      let max_elapsed =
        List.fold_left (fun acc rp -> Float.max acc rp.Report.rp_elapsed) 0.0 reports
      in
      { ps_preload_rows = preload_rows; ps_wall = wall; ps_worker_max = max_elapsed;
        ps_qps = qps; ps_agg = agg; ps_fetch_in = fetch_in; ps_notify_out = notify_out;
        ps_notify_in = counter_value metrics "peer.notify.in";
        ps_sub_lost = counter_value metrics "peer.sub.lost";
        ps_scan_parked = counter_value metrics "scan.parked";
        ps_fetch_coalesced = counter_value metrics "fetch.coalesced";
        ps_session_reads = counter_value metrics "session.reads";
        ps_stale_waits = counter_value metrics "session.stale_waits";
        ps_stale_errors = counter_value metrics "session.stale_errors";
        ps_fetch_wait = hist_pooled metrics "resolver.fetch.wait_ns"; ps_share = share;
        ps_per_shard_ops = per_shard_ops metrics ~shards; ps_migrate = migrate })

let run cfg =
  let ops = effective_ops cfg in
  log "pequod-load: generating %d-user graph (seed %d)..." cfg.users cfg.seed;
  let graph =
    Social_graph.generate ~rng:(Rng.create cfg.seed) ~nusers:cfg.users
      ~avg_follows:cfg.avg_follows ()
  in
  log "pequod-load: %d users, %d edges (%d KiB CSR)" cfg.users (Social_graph.edge_count graph)
    (Social_graph.memory_words graph * Sys.word_size / 8 / 1024);
  (* a multi-shard run earns its headline as a speedup over the same
     binary at --shards 1, measured back to back on the same box *)
  let baseline =
    if cfg.shards >= 2 then begin
      log "pequod-load: measuring the --shards 1 baseline first...";
      Some (run_pass cfg ~graph ~ops ~shards:1)
    end
    else None
  in
  let p = run_pass cfg ~graph ~ops ~shards:cfg.shards in
  let total_ops = Obs.counter_value p.ps_agg "load.ops" in
  let peer_msgs = p.ps_fetch_in + p.ps_notify_out in
  let class_snaps =
    List.map
      (fun name ->
        let short =
          (* "load.login.us" -> "login" *)
          match String.split_on_char '.' name with
          | [ _; cls; _ ] -> cls
          | _ -> name
        in
        (short, Obs.Histogram.snapshot (Obs.histogram p.ps_agg name)))
      (Array.to_list Driver.classes)
  in
  let migrate_p99 m ph =
    match List.assoc_opt ph m.mg_phases with
    | Some s -> s.Obs.Histogram.p99
    | None -> 0
  in
  (* remote fetches per timeline read: how much §2.4 traffic one check
     costs after batching and coalescing (the seed run paid ~0.7) *)
  let checks =
    match List.assoc_opt "check" class_snaps with
    | Some s -> s.Obs.Histogram.count
    | None -> 0
  in
  let fetch_per_read =
    if checks = 0 then 0.0 else float_of_int p.ps_fetch_in /. float_of_int checks
  in
  let fw_p50, fw_p95, fw_p99 =
    match p.ps_fetch_wait with
    | Some (_, p50, p95, p99) -> (p50 /. 1e3, p95 /. 1e3, p99 /. 1e3)
    | None -> (0.0, 0.0, 0.0)
  in
  (* read-your-writes anomaly rate over the timeline reads that had an
     acked own-post to validate against (0 when none did); a session
     run must record exactly 0 *)
  let stale = Obs.counter_value p.ps_agg "load.stale_reads" in
  let fresh = Obs.counter_value p.ps_agg "load.fresh_reads" in
  let stale_read_rate =
    if stale + fresh = 0 then 0.0 else float_of_int stale /. float_of_int (stale + fresh)
  in
  let derived =
    [ ("qps", p.ps_qps); ("subscription_share", p.ps_share);
      ("fetch_per_read", fetch_per_read); ("stale_read_rate", stale_read_rate);
      (* parked-scan fetch wait, microseconds (approximate pooling across
         servers; see [hist_pooled]) *)
      ("fetch_wait_p50_us", fw_p50); ("fetch_wait_p95_us", fw_p95);
      ("fetch_wait_p99_us", fw_p99) ]
    @ (match baseline with
      | Some b when b.ps_qps > 0.0 -> [ ("shard_speedup", p.ps_qps /. b.ps_qps) ]
      | _ -> [])
    @
    match p.ps_migrate with
    | Some m ->
      [ ("migrate_keys_moved", float_of_int m.mg_keys_moved);
        ("migrate_delta_replayed", float_of_int m.mg_delta_replayed);
        ("migrate_probe_p99_before_us", float_of_int (migrate_p99 m "before"));
        ("migrate_probe_p99_during_us", float_of_int (migrate_p99 m "during"));
        ("migrate_probe_p99_after_us", float_of_int (migrate_p99 m "after")) ]
    | None -> []
  in
  Benchstamp.write_file ~path:cfg.out ~benchmark:"cluster" ~derived
    ([ ( "config",
         Benchstamp.Obj
           [ ("users", Benchstamp.Int cfg.users); ("ops", Benchstamp.Int ops);
             ("workers", Benchstamp.Int cfg.workers); ("homes", Benchstamp.Int cfg.homes);
             ("computes", Benchstamp.Int cfg.computes);
             ("shards", Benchstamp.Int cfg.shards);
             ("nproc", Benchstamp.Int (Domain.recommended_domain_count ()));
             ("avg_follows", Benchstamp.Int cfg.avg_follows);
             ("active_fraction", Benchstamp.Float cfg.active);
             ("rate", Benchstamp.Float cfg.rate); ("pipeline", Benchstamp.Int cfg.window);
             ("seed", Benchstamp.Int cfg.seed);
             ("edges", Benchstamp.Int (Social_graph.edge_count graph));
             ("preload_rows", Benchstamp.Int p.ps_preload_rows) ] );
       ( "results",
         Benchstamp.Obj
           ([ ("qps", Benchstamp.Float p.ps_qps); ("wall_s", Benchstamp.Float p.ps_wall);
              ("worker_max_s", Benchstamp.Float p.ps_worker_max);
              ("ops_completed", Benchstamp.Int total_ops);
              ("errors", Benchstamp.Int (Obs.counter_value p.ps_agg "load.errors"));
              ("failed", Benchstamp.Int (Obs.counter_value p.ps_agg "load.failed"));
              ("entries_read", Benchstamp.Int (Obs.counter_value p.ps_agg "load.entries"));
              ("subscription_share", Benchstamp.Float p.ps_share);
              ("peer_fetch_in", Benchstamp.Int p.ps_fetch_in);
              ("peer_notify_out", Benchstamp.Int p.ps_notify_out);
              ("peer_notify_in", Benchstamp.Int p.ps_notify_in);
              ("peer_sub_lost", Benchstamp.Int p.ps_sub_lost);
              ("scan_parked", Benchstamp.Int p.ps_scan_parked);
              ("fetch_coalesced", Benchstamp.Int p.ps_fetch_coalesced);
              ("sessions", Benchstamp.Int (if cfg.sessions then 1 else 0));
              ("stale_reads", Benchstamp.Int stale);
              ("fresh_reads", Benchstamp.Int fresh);
              ("session_reads", Benchstamp.Int p.ps_session_reads);
              ("session_stale_waits", Benchstamp.Int p.ps_stale_waits);
              ("session_stale_errors", Benchstamp.Int p.ps_stale_errors) ]
           @
           if cfg.shards > 0 then
             [ ( "per_shard_ops",
                 Benchstamp.Arr
                   (List.map (fun n -> Benchstamp.Int n)
                      (Array.to_list p.ps_per_shard_ops)) ) ]
           else []) ) ]
    @ (match p.ps_migrate with
      | Some m ->
        [ ( "migrate",
            Benchstamp.Obj
              ([ ("keys_moved", Benchstamp.Int m.mg_keys_moved);
                 ("delta_replayed", Benchstamp.Int m.mg_delta_replayed);
                 ("probe_errors", Benchstamp.Int m.mg_probe_errors) ]
              @ List.map (fun (ph, s) -> ("probe_" ^ ph ^ "_us", hist_json s)) m.mg_phases)
          ) ]
      | None -> [])
    @ (match baseline with
      | Some b ->
        [ ( "baseline_shards1",
            Benchstamp.Obj
              [ ("qps", Benchstamp.Float b.ps_qps); ("wall_s", Benchstamp.Float b.ps_wall);
                ("ops_completed", Benchstamp.Int (Obs.counter_value b.ps_agg "load.ops"));
                ("subscription_share", Benchstamp.Float b.ps_share) ] ) ]
      | None -> [])
    @ [ ( "latency_us",
          Benchstamp.Obj (List.map (fun (cls, snap) -> (cls, hist_json snap)) class_snaps) )
      ]);
  (* human summary *)
  let nservers = if cfg.shards > 0 then 1 else cfg.homes + cfg.computes in
  let tbl =
    Tablefmt.create
      ~title:
        (Printf.sprintf "Cluster load: %d users, %d ops, %d servers%s, %d workers"
           cfg.users total_ops nservers
           (if cfg.shards > 0 then Printf.sprintf " (%d shards)" cfg.shards else "")
           cfg.workers)
      ~headers:[ "op class"; "count"; "p50 us"; "p95 us"; "p99 us" ]
      ~aligns:[ Tablefmt.Left; Right; Right; Right; Right ]
  in
  List.iter
    (fun (cls, snap) ->
      let open Obs.Histogram in
      Tablefmt.add_row tbl
        [ cls; string_of_int snap.count; string_of_int snap.p50; string_of_int snap.p95;
          string_of_int snap.p99 ])
    class_snaps;
  Tablefmt.print tbl;
  Printf.printf
    "qps %.1f  subscription share %.3f (peer msgs %d / client ops %d)  errors %d\n"
    p.ps_qps p.ps_share peer_msgs total_ops
    (Obs.counter_value p.ps_agg "load.errors");
  Printf.printf
    "%s: stale read rate %.4f (%d stale / %d validated; server stamped reads %d, waits \
     %d, stale errors %d)\n"
    (if cfg.sessions then "sessions" else "baseline")
    stale_read_rate stale (stale + fresh) p.ps_session_reads p.ps_stale_waits
    p.ps_stale_errors;
  (match baseline with
  | Some b when b.ps_qps > 0.0 ->
    Printf.printf "shards=%d qps %.1f vs shards=1 qps %.1f: speedup %.2fx\n" cfg.shards
      p.ps_qps b.ps_qps (p.ps_qps /. b.ps_qps)
  | _ -> ());
  (match p.ps_migrate with
  | Some m ->
    Printf.printf
      "migration: %d keys moved, %d delta replayed; probe p99 us before/during/after \
       %d/%d/%d (probe errors %d)\n"
      m.mg_keys_moved m.mg_delta_replayed (migrate_p99 m "before") (migrate_p99 m "during")
      (migrate_p99 m "after") m.mg_probe_errors
  | None -> ());
  Printf.printf "(wrote %s)\n" cfg.out;
  0
