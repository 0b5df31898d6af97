(** The repository benchmark: one Twip workload against a live forked
    cluster, measured from outside.

    {v perfbench --workload NAME --seed N --seconds S --trace 0|1 v}

    A run generates the social graph and op stream from [--seed], sets
    the cluster up (boot, preload, warm-up) [setups] times and keeps the
    last one, then measures for [--seconds]: pairs of a closed-loop
    slice (throughput) and an open-loop slice at the workload's fixed
    offered rate (latency). It then checks a seeded sample of timelines
    against the home's base rows, and prints a human summary followed by
    one JSON line. [--trace 0] reports the end-to-end metrics;
    [--trace 1] makes a traced run and reports the per-layer ones.
    Exits 1, with no result line, when anything fails — including the
    correctness check. See README.md in this directory. *)

module Graph = Pequod_apps.Social_graph
module Message = Pequod_proto.Message
module Net_client = Pequod_server_lib.Net_client
module Samples = Metrics.Samples

type workload = {
  name : string;
  layout : Cluster.layout;
  mix : float * float * float * float;  (** login, subscribe, check, post *)
  sessions : bool;
  rate : float;  (** open-loop offered ops/s *)
}

let twip_mix = (0.05, 0.09, 0.85, 0.01)

let static = { Cluster.routing = Static; durable_home = false; compute_memory_limit = None }

let workloads =
  [ { name = "twip-static"; layout = static; mix = twip_mix; sessions = false; rate = 5000.0 };
    { name = "twip-directory"; layout = { static with routing = Directory }; mix = twip_mix;
      sessions = false; rate = 5000.0 };
    (* not in BENCHMARK.json: its latencies and qps drift too far between
       runs on a shared host (README.md, "Workloads") *)
    { name = "twip-write-heavy";
      layout = { static with durable_home = true; compute_memory_limit = Some (12 lsl 20) };
      mix = (0.02, 0.08, 0.50, 0.40); sessions = false; rate = 500.0 };
    (* not in BENCHMARK.json: its end-of-run check fails on some seeds
       (README.md, "Known failure") *)
    { name = "twip-session"; layout = static; mix = twip_mix; sessions = true; rate = 1000.0 } ]

(* the inputs every workload shares *)
let users = 10_000
let avg_follows = 8

(* Popularity skew of the follow graph. At the generator's default 1.0,
   user 0 is followed by three quarters of the graph, so whether it
   posts once more or less in a ten-second window swings the work per
   op by a fifth between seeds; at 0.5 the most followed user still has
   fifty times the median following, and that swing is a twentieth. *)
let zipf_s = 0.5
let preload_posts = 5_000
let window = 32  (* closed-loop pipeline depth *)
let open_cap = 64  (* most due ops one open-loop round sends *)
let setups = 3
(* the measured window is a run of 2 s pairs: a closed-loop slice, then
   an open-loop slice three times as long (latency tails need samples) *)
let pair_s = 2.0
let closed_share = 0.25
(* Throughput is reported at a reference host speed. On a shared host
   the CPU available to one thread drifts by a third over minutes, and
   closed-loop qps drifts with it; the rate of a fixed CPU-bound loop
   (Driver.calibrate), run before each slice pair while the servers
   idle, tracks that drift, so qps is scaled by reference_speed / the
   median speed. The raw qps and the speed are printed in the summary. *)
let reference_speed = 20.0  (* calibration iterations per microsecond *)
let calibrate_ms = 30

let tail_group = 1000  (* fewest samples a p99 is taken over: ten beyond it *)
let check_sample = 200

let log fmt = Printf.eprintf ("perfbench: " ^^ fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

let preload ~seed ~graph home_addr =
  let c = Cluster.client_of home_addr in
  let batch = ref [] and n = ref 0 in
  let flush () =
    if !n > 0 then begin
      (match Net_client.call c (Message.Put_batch (List.rev !batch)) with
      | Message.Done | Message.Stamps _ -> ()
      | Message.Error msg -> failwith ("preload failed: " ^ msg)
      | _ -> failwith "preload: unexpected answer");
      batch := [];
      n := 0
    end
  in
  Driver.iter_base_rows ~seed ~graph ~posts:preload_posts (fun k v ->
      batch := (k, v) :: !batch;
      incr n;
      if !n = 1000 then flush ());
  flush ();
  Net_client.close c

(** Boot, preload and warm up one cluster; returns it with its driver
    and the seconds it took. *)
let set_up ~exe ~dir ~seed ~graph w =
  let t0 = Unix.gettimeofday () in
  let cluster = Cluster.start ~exe ~dir w.layout in
  match
    preload ~seed ~graph cluster.home.addr;
    let drv =
      Driver.create ~graph ~seed ~mix:w.mix ~sessions:w.sessions ~home_addr:cluster.home.addr
        ~compute_addr:cluster.compute.addr
    in
    (* materialize every active timeline, then let the mix settle *)
    let warm = Driver.phase () in
    Driver.touch_active drv warm ~window;
    Driver.closed drv warm ~window ~seconds:0.5;
    if Metrics.failed warm.tally > 0 then
      failwith (Printf.sprintf "%d warm-up ops failed" (Metrics.failed warm.tally));
    drv
  with
  | drv -> (cluster, drv, Unix.gettimeofday () -. t0)
  | exception e ->
    Cluster.shutdown cluster;
    raise e

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type snap = { home : (string * Obs.value) list; compute : (string * Obs.value) list }

let snapshot (c : Cluster.t) = { home = Cluster.stats c.home.addr; compute = Cluster.stats c.compute.addr }

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let metric = Metrics.metric

(** The phase totals that several metrics share. *)
let ops (p : Driver.phase) = p.reads_ok + p.writes_ok

let end_to_end ~closed ~open_ ~(before : snap) ~(after : snap) ~cpu_s ~rss_mb ~setup_s ~speed =
  let both (s : snap) name = Cluster.counter s.home name + Cluster.counter s.compute name in
  let d name = fi (both after name - both before name) in
  let completed = fi (ops closed + ops open_) in
  let read = Samples.sorted open_.Driver.read_ms and write = Samples.sorted open_.write_ms in
  let attempted = closed.tally.attempted + open_.tally.attempted in
  let answered = closed.tally.answered + open_.tally.answered in
  let validated = closed.validated + open_.validated in
  let stale = closed.stale_reads + open_.stale_reads in
  [ metric "qps" (Metrics.median closed.slice_qps *. reference_speed /. speed);
    metric "read_p50_ms" (Metrics.percentile read 0.50);
    metric "write_p50_ms" (Metrics.percentile write 0.50);
    metric "ok_share" (if attempted = 0 then 1.0 else ratio (fi answered) (fi attempted));
    metric "fresh_read_share" (1.0 -. ratio (fi stale) (fi validated));
    metric "peer_msgs_per_op" (ratio (d "peer.fetch.in" +. d "peer.notify.out") completed);
    metric "cpu_us_per_op" (ratio (cpu_s *. 1e6) completed);
    metric "server_rss_mb" rss_mb;
    metric "setup_s" setup_s ]

(* p99 per group of at least tail_group samples, median over groups *)
let tail_p99 samples cuts = Metrics.grouped_percentile samples ~cuts ~min_group:tail_group 0.99

let per_layer ~(closed : Driver.phase) ~(open_ : Driver.phase) ~(before : snap) ~(after : snap)
    ~client_cpu_s ~window_s ~overhead ~(engine : Layers.result) =
  let both (s : snap) name = Cluster.counter s.home name + Cluster.counter s.compute name in
  let d name = fi (both after name - both before name) in
  let dc name = fi (Cluster.counter after.compute name - Cluster.counter before.compute name) in
  let dh name = fi (Cluster.counter after.home name - Cluster.counter before.home name) in
  let reads = fi (closed.reads_ok + open_.reads_ok) in
  let writes = fi (closed.writes_ok + open_.writes_ok) in
  let completed = reads +. writes in
  (* server histograms are cumulative since boot, warm-up included *)
  let hist_us (s : (string * Obs.value) list) name q =
    match Cluster.histogram s name with
    | None -> 0.0
    | Some h -> fi (if q = 0.5 then h.Obs.Histogram.p50 else h.Obs.Histogram.p99) /. 1e3
  in
  let sorted = Samples.sorted in
  let p s q = Metrics.percentile (sorted s) q in
  let pooled f = f closed +. f open_ in
  let fetches = dh "peer.fetch.in" and coalesced = dc "fetch.coalesced" in
  let session_reads = d "session.reads" in
  let epoch (s : (string * Obs.value) list) = Cluster.counter s "dir.epoch" in
  let gauge_sum name = fi (both after name) in
  [ metric "load.read_p99_ms" (tail_p99 open_.read_ms open_.read_cuts);
    metric "load.write_p99_ms" (tail_p99 open_.write_ms open_.write_cuts);
    metric "load.gen_lag_p99_ms" (p open_.lag_ms 0.99);
    metric "load.client_cpu_us_per_op" (ratio (client_cpu_s *. 1e6) completed);
    metric "proto.encode_ns_per_op"
      (ratio (pooled (fun ph -> fi ph.encode_ns)) (pooled (fun ph -> fi ph.coded_ops)));
    metric "proto.decode_ns_per_op"
      (ratio (pooled (fun ph -> fi ph.decode_ns)) (pooled (fun ph -> fi ph.coded_ops)));
    metric "proto.bytes_per_op"
      (ratio (pooled (fun ph -> fi ph.wire_bytes)) (pooled (fun ph -> fi ph.coded_ops)));
    metric "net.rtt_p50_us" (p open_.rtt_us 0.50);
    metric "net.rtt_p99_us" (p open_.rtt_us 0.99);
    metric "net.rpcs_per_op" (ratio (d "net.rpcs") completed);
    metric "remote.parked_per_read" (ratio (dc "scan.parked") reads);
    metric "remote.fetch_per_read" (ratio fetches reads);
    metric "remote.coalesced_share" (ratio coalesced (coalesced +. fetches));
    metric "remote.fetch_wait_p50_us" (hist_us after.compute "resolver.fetch.wait_ns" 0.5);
    metric "remote.fetch_wait_p99_us" (hist_us after.compute "resolver.fetch.wait_ns" 0.99);
    metric "directory.polls_per_s" (ratio (d "dir.fetch") window_s);
    metric "directory.epoch_max" (fi (max (epoch after.home) (epoch after.compute)));
    metric "push.notify_out_per_write" (ratio (d "peer.notify.out") writes);
    metric "push.notify_in_per_write" (ratio (d "peer.notify.in") writes);
    metric "push.sub_lost" (d "peer.sub.lost");
    metric "session.wait_share" (ratio (d "session.stale_waits") session_reads);
    metric "session.stale_errors" (d "session.stale_errors");
    metric "session.stamp_wait_p50_us" (hist_us after.compute "stamp.wait_ns" 0.5);
    metric "session.stamp_wait_p99_us" (hist_us after.compute "stamp.wait_ns" 0.99);
    metric "core.scan_p50_us" (hist_us after.compute "op.scan.ns" 0.5);
    metric "core.scan_p99_us" (hist_us after.compute "op.scan.ns" 0.99);
    metric "core.hit_share" (ratio (dc "op.scan_fast") (dc "op.scan"));
    metric "core.recompute_per_read" (ratio (dc "exec.recompute_region") reads);
    metric "core.apply_log_per_read" (ratio (dc "exec.apply_log") reads);
    metric "core.evict_per_read" (ratio (dc "evict.cover") reads);
    metric "core.updater_runs_per_write" (ratio (d "updater.run") writes);
    metric "core.invalidate_per_write" (ratio (d "updater.invalidate") writes);
    metric "core.local_scan_p50_us" (p engine.scan_us 0.50);
    metric "core.local_scan_p99_us" (p engine.scan_us 0.99);
    metric "core.local_put_p50_us" (p engine.put_us 0.50);
    metric "store.steps_per_pair"
      (ratio (dc "table.steps") (pooled (fun ph -> fi ph.pairs)));
    metric "store.inserts_per_write" (ratio (d "table.inserts") writes);
    metric "store.bytes_per_pair" (ratio (gauge_sum "memory.store_bytes") (gauge_sum "store.size"));
    metric "persist.wal_bytes_per_user_byte"
      (ratio
         (fi (match (Cluster.histogram after.home "wal.append.bytes", Cluster.histogram before.home "wal.append.bytes") with
             | Some a, Some b -> a.Obs.Histogram.sum - b.Obs.Histogram.sum
             | Some a, None -> a.Obs.Histogram.sum
             | None, _ -> 0))
         (pooled (fun ph -> fi ph.user_bytes)));
    metric "persist.syncs_per_write" (ratio (dh "wal.syncs") writes);
    metric "persist.sync_p50_us" (hist_us after.home "wal.sync.ns" 0.5);
    metric "persist.sync_p99_us" (hist_us after.home "wal.sync.ns" 0.99);
    metric "persist.local_sync_p50_us" (p engine.sync_us 0.50);
    metric "obs.trace_overhead_share" overhead ]

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: twip-static twip-directory twip-write-heavy twip-session";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string v;
      go rest
    | "--trace" :: v :: rest ->
      trace := v = "1";
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | Some w when !seconds > 0.0 -> (w, !seed, !seconds, !trace)
  | _ -> usage ()

let cpu_of (c : Cluster.t) = Cluster.cpu_seconds c.home.pid +. Cluster.cpu_seconds c.compute.pid
let self_cpu () = let t = Unix.times () in t.tms_utime +. t.tms_stime

let run w ~seed ~seconds ~trace =
  let exe = Pequod_load_lib.Spawn.default_server_exe () in
  let root = Filename.concat "_perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  remove_tree root;
  mkdir_p root;
  Fun.protect ~finally:(fun () -> remove_tree root) @@ fun () ->
  let graph = Graph.generate ~rng:(Rng.create seed) ~nusers:users ~avg_follows ~zipf_s () in
  (* set up [setups] times (once when tracing); keep the last *)
  let reps = if trace then 1 else setups in
  let rec set_up_all i times =
    let dir = Filename.concat root (Printf.sprintf "setup-%d" i) in
    Sys.mkdir dir 0o755;
    let cluster, drv, s = set_up ~exe ~dir ~seed ~graph w in
    if i + 1 = reps then (cluster, drv, s :: times)
    else begin
      Driver.close drv;
      Cluster.shutdown cluster;
      set_up_all (i + 1) (s :: times)
    end
  in
  let cluster, drv, setup_times = set_up_all 0 [] in
  Fun.protect ~finally:(fun () -> Driver.close drv; Cluster.shutdown cluster) @@ fun () ->
  let setup_s = Metrics.median setup_times in
  let before = snapshot cluster in
  let cpu0 = cpu_of cluster and self0 = self_cpu () and t0 = Unix.gettimeofday () in
  let closed = Driver.phase () and open_ = Driver.phase () in
  (* closed- and open-loop slices alternate, so a slow stretch of the
     host lands on both; when tracing, every other closed slice runs
     untraced, and the qps ratio of the two is the tracing overhead *)
  let untraced = Driver.phase () in
  let pairs = max 1 (int_of_float (Float.round (seconds /. pair_s))) in
  let pair = seconds /. float_of_int pairs in
  let speeds = ref [] in
  for i = 1 to pairs do
    speeds := Driver.calibrate ~ms:calibrate_ms :: !speeds;
    drv.tracing <- trace && i mod 2 = 0;
    Driver.closed drv (if trace && i mod 2 = 1 then untraced else closed) ~window
      ~seconds:(pair *. closed_share);
    Cluster.drain cluster;
    drv.tracing <- trace;
    Driver.open_loop drv open_ ~rate:w.rate ~seconds:(pair *. (1.0 -. closed_share)) ~cap:open_cap
  done;
  let speed = Metrics.median !speeds in
  let window_s = Unix.gettimeofday () -. t0 in
  let cpu_s = cpu_of cluster -. cpu0 and client_cpu_s = self_cpu () -. self0 in
  let after = snapshot cluster in
  let rss_mb = Cluster.peak_rss_mb cluster.home.pid +. Cluster.peak_rss_mb cluster.compute.pid in
  let engine =
    if trace then
      let durable_dir =
        if w.layout.durable_home then Some (Filename.concat root "engine-data") else None
      in
      Layers.replay ~tracer:drv ~graph ~seed ~mix:w.mix ~preload_posts ~durable_dir
        ~seconds:(seconds /. 5.0)
    else { Layers.scan_us = Samples.create (); put_us = Samples.create (); sync_us = Samples.create () }
  in
  let checked =
    Verify.run ~seed ~graph ~home_addr:cluster.home.addr ~compute_addr:cluster.compute.addr
      ~sample:check_sample
  in
  let qps (ph : Driver.phase) = Metrics.median ph.slice_qps in
  let metrics =
    if trace then begin
      Driver.write_spans drv
        (Printf.sprintf "_perfbench/spans-%s-seed%d.tsv" w.name seed);
      per_layer ~closed ~open_ ~before ~after ~client_cpu_s ~window_s
        ~overhead:(1.0 -. ratio (qps closed) (qps untraced)) ~engine
    end
    else end_to_end ~closed ~open_ ~before ~after ~cpu_s ~rss_mb ~setup_s ~speed
  in
  let catalogue = if trace then Metrics.per_layer_units else Metrics.end_to_end_units in
  if List.map (fun (m : Metrics.metric) -> m.name) metrics <> List.map fst catalogue then
    failwith "emitted metrics differ from the catalogue in metrics.ml";
  let tally = Metrics.tally () in
  List.iter
    (fun (t : Metrics.tally) ->
      tally.attempted <- tally.attempted + t.attempted;
      tally.answered <- tally.answered + t.answered;
      tally.errors <- tally.errors + t.errors;
      tally.stale <- tally.stale + t.stale;
      tally.timeouts <- tally.timeouts + t.timeouts;
      tally.lost <- tally.lost + t.lost)
    [ closed.tally; open_.tally; untraced.tally ];
  (* human summary *)
  Printf.printf "workload %s seed %d: %d users, %d edges, %d preloaded posts\n" w.name seed users
    (Graph.edge_count graph) preload_posts;
  Printf.printf
    "closed loop: %d ops in %.2fs at pipeline %d; open loop: %d ops at %.0f/s\n"
    (ops closed) closed.elapsed_s window (ops open_) w.rate;
  Printf.printf
    "latency samples: %d reads, %d writes (exact, timed from send deadline); p99 read %.3f ms, \
     write %.3f ms (median over groups of >= %d)\n"
    (Samples.count open_.read_ms) (Samples.count open_.write_ms)
    (tail_p99 open_.read_ms open_.read_cuts) (tail_p99 open_.write_ms open_.write_cuts) tail_group;
  Printf.printf
    "attempted %d: errors %d, stale %d, timeouts %d, lost %d; validated reads %d, stale %d\n"
    tally.attempted tally.errors tally.stale tally.timeouts tally.lost
    (closed.validated + open_.validated) (closed.stale_reads + open_.stale_reads);
  Printf.printf "raw qps %.1f at host speed %.2f (reference %.1f)\n"
    (Metrics.median closed.slice_qps) speed reference_speed;
  Printf.printf "setup: %s s (median reported)\n"
    (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") setup_times));
  List.iter (fun m -> Printf.printf "  %-34s %14.4f %s\n" m.Metrics.name m.value m.unit_) metrics;
  match checked with
  | Ok n ->
    Printf.printf "correctness: %d sampled timelines match the home's base rows\n" n;
    print_endline
      (Metrics.result_json ~correct:true ~attempted:tally.attempted ~failed:(Metrics.failed tally)
         metrics);
    0
  | Error msg ->
    Printf.printf "correctness: FAILED: %s\n%!" msg;
    1

let () =
  Printexc.record_backtrace true;
  let w, seed, seconds, trace = parse_args () in
  (* a server dying mid-write must not kill the benchmark with SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let code =
    try run w ~seed ~seconds ~trace
    with e ->
      log "%s failed: %s\n%s" w.name (Printexc.to_string e) (Printexc.get_backtrace ());
      1
  in
  exit code
