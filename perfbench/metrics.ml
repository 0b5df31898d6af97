(** Pure bookkeeping of the benchmark: exact-sample percentiles, the
    failure tally, metric-name validation and the result line.

    Nothing here touches the network or the clock, so it is unit-tested
    directly ([test_perfbench.ml]). *)

(* ------------------------------------------------------------------ *)
(* Exact samples                                                       *)

(** A growable buffer of float samples. Every sample is kept, so a
    percentile is a sample that was observed, not a bucket midpoint. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let count t = t.len
  let sum t = Array.fold_left ( +. ) 0.0 (Array.sub t.data 0 t.len)

  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort Float.compare a;
    a
end

(** Nearest-rank percentile of an ascending array: the smallest sample
    with at least [q] of all samples at or below it. [q] is in (0, 1];
    an empty array gives 0. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(** The median of a list (mean of the two middle values when the count
    is even); 0 for an empty list. *)
let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** A tail percentile that one stall cannot own. [samples] are in
    arrival order and [cuts] are the offsets where measurement slices
    start. Consecutive slices are grouped, each group the fewest slices
    that hold at least [min_group] samples (a short remainder joins the
    last group); the result is the median over groups of each group's
    [q]-percentile. With fewer than [min_group] samples in all, it is
    the [q]-percentile of all of them. *)
let grouped_percentile samples ~cuts ~min_group q =
  let n = Samples.count samples in
  let bounds = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < n) cuts) @ [ n ] in
  (* close a group at the first slice end that gives it min_group *)
  let rec groups start acc = function
    | [] -> List.rev acc
    | stop :: rest when stop - start >= min_group -> groups stop ((start, stop) :: acc) rest
    | _ :: rest -> groups start acc rest
  in
  let gs =
    match groups 0 [] bounds with
    | [] -> [ (0, n) ]
    | gs -> (
      (* a remainder past the last full group joins it *)
      match List.rev gs with
      | (lo, hi) :: earlier when hi < n -> List.rev ((lo, n) :: earlier)
      | _ -> gs)
  in
  let pct (lo, hi) =
    let a = Array.sub samples.Samples.data lo (hi - lo) in
    Array.sort Float.compare a;
    percentile a q
  in
  median (List.map pct gs)

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                  *)

(** What came back for one attempted op. Every outcome but [Answered]
    is a failure. *)
type outcome =
  | Answered
  | Error_answer  (** the server answered [Error] *)
  | Stale_answer  (** the server answered the typed [Stale] *)
  | Timed_out  (** no answer before the client deadline *)
  | Conn_lost  (** the connection failed before the answer *)

type tally = {
  mutable attempted : int;
  mutable answered : int;
  mutable errors : int;
  mutable stale : int;
  mutable timeouts : int;
  mutable lost : int;
}

let tally () = { attempted = 0; answered = 0; errors = 0; stale = 0; timeouts = 0; lost = 0 }

let record t = function
  | Answered ->
    t.attempted <- t.attempted + 1;
    t.answered <- t.answered + 1
  | Error_answer ->
    t.attempted <- t.attempted + 1;
    t.errors <- t.errors + 1
  | Stale_answer ->
    t.attempted <- t.attempted + 1;
    t.stale <- t.stale + 1
  | Timed_out ->
    t.attempted <- t.attempted + 1;
    t.timeouts <- t.timeouts + 1
  | Conn_lost ->
    t.attempted <- t.attempted + 1;
    t.lost <- t.lost + 1

let failed t = t.errors + t.stale + t.timeouts + t.lost

(** Answered ops over attempted ops; 1 when nothing was attempted. *)
let ok_share t =
  if t.attempted = 0 then 1.0 else float_of_int t.answered /. float_of_int t.attempted

(** Classify a client-side transport failure by its message: the
    client reports an expired response deadline as "request timed out",
    everything else is a lost or refused connection. *)
let transport_outcome msg =
  let needle = "timed out" in
  let n = String.length needle and m = String.length msg in
  let rec scan i = i + n <= m && (String.sub msg i n = needle || scan (i + 1)) in
  if scan 0 then Timed_out else Conn_lost

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)

(** A metric name: starts with a letter or digit, then at most 64
    letters, digits, [_], [.] and [-] in all. *)
let valid_name s =
  let ok_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1
  && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

(** A unit: at most 16 letters, digits, [_], [/], [%], [.] and [-]. *)
let valid_unit s =
  let ok_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1 && String.length s <= 16 && String.for_all ok_char s

type metric = { name : string; value : float; unit_ : string }

(** Every metric a run emits, with its unit: the end-to-end set of an
    untraced run, in order (BENCHMARK.json lists the same), ... *)
let end_to_end_units =
  [ ("qps", "1/s"); ("read_p50_ms", "ms"); ("write_p50_ms", "ms"); ("ok_share", "share");
    ("fresh_read_share", "share"); ("peer_msgs_per_op", "msgs/op"); ("cpu_us_per_op", "us/op");
    ("server_rss_mb", "MB"); ("setup_s", "s") ]

(** ... and the per-layer set of a traced run (README.md maps each to
    the end-to-end metric and workload it should move). *)
let per_layer_units =
  [ ("load.read_p99_ms", "ms"); ("load.write_p99_ms", "ms"); ("load.gen_lag_p99_ms", "ms");
    ("load.client_cpu_us_per_op", "us/op"); ("proto.encode_ns_per_op", "ns/op");
    ("proto.decode_ns_per_op", "ns/op"); ("proto.bytes_per_op", "B/op");
    ("net.rtt_p50_us", "us"); ("net.rtt_p99_us", "us"); ("net.rpcs_per_op", "rpcs/op");
    ("remote.parked_per_read", "count/op"); ("remote.fetch_per_read", "count/op");
    ("remote.coalesced_share", "share"); ("remote.fetch_wait_p50_us", "us");
    ("remote.fetch_wait_p99_us", "us"); ("directory.polls_per_s", "1/s");
    ("directory.epoch_max", "epoch"); ("push.notify_out_per_write", "count/op");
    ("push.notify_in_per_write", "count/op"); ("push.sub_lost", "count");
    ("session.wait_share", "share"); ("session.stale_errors", "count");
    ("session.stamp_wait_p50_us", "us"); ("session.stamp_wait_p99_us", "us");
    ("core.scan_p50_us", "us"); ("core.scan_p99_us", "us"); ("core.hit_share", "share");
    ("core.recompute_per_read", "count/op"); ("core.apply_log_per_read", "count/op");
    ("core.evict_per_read", "count/op"); ("core.updater_runs_per_write", "count/op");
    ("core.invalidate_per_write", "count/op"); ("core.local_scan_p50_us", "us");
    ("core.local_scan_p99_us", "us"); ("core.local_put_p50_us", "us");
    ("store.steps_per_pair", "steps/pair"); ("store.inserts_per_write", "count/op");
    ("store.bytes_per_pair", "B/pair"); ("persist.wal_bytes_per_user_byte", "B/B");
    ("persist.syncs_per_write", "count/op"); ("persist.sync_p50_us", "us");
    ("persist.sync_p99_us", "us"); ("persist.local_sync_p50_us", "us");
    ("obs.trace_overhead_share", "share") ]

(** A metric of the catalogue, its unit looked up.
    @raise Not_found for a name outside it. *)
let metric name value =
  let unit_ =
    match List.assoc_opt name end_to_end_units with
    | Some u -> u
    | None -> List.assoc name per_layer_units
  in
  { name; value; unit_ }

(* every digit the float carries; JSON has no NaN or infinity *)
let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

(** The one-line JSON result: [correct], [attempted], [failed] and each
    metric with its unit. Raises [Invalid_argument] on a malformed or
    repeated metric name or unit — a result the benchmark's own
    contract would refuse is a bug here, not data. *)
let result_json ~correct ~attempted ~failed metrics =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun m ->
      if not (valid_name m.name) then invalid_arg ("bad metric name " ^ m.name);
      if not (valid_unit m.unit_) then invalid_arg ("bad unit for " ^ m.name);
      if Hashtbl.mem seen m.name then invalid_arg ("repeated metric " ^ m.name);
      Hashtbl.add seen m.name ())
    metrics;
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value) m.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    (max 1 attempted) failed (String.concat ", " body)
