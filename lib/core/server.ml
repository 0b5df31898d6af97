(** The Pequod cache engine: an ordered key-value store with cache joins.

    One [Server.t] is one cache server. It supports the four client
    operations ([get], [put], [remove], [scan]) plus [add_join] (§2), and
    implements:

    - forward query execution with slot sets and containing ranges
      (§3.1, Figs 3 and 5), with dynamic materialization: join output is
      computed on first demand for a range, then kept fresh;
    - incremental maintenance (§3.2): eager updaters for value sources,
      lazy invalidation (partial logs, escalating to complete
      invalidation) for check sources, updater combining, output hints,
      and value sharing;
    - pull and snapshot maintenance annotations (§3.4);
    - missing-data resolution hooks (§3.3): a resolver callback loads
      base ranges from a backing database or a remote home server; an
      asynchronous resolver makes [scan_nb] return the set of ranges to
      fetch so the host can fetch them in parallel and retry (the restart
      behaviour: completed covers stay valid, and a region is probed for
      absent sources before it is materialized, so it is built once);
    - LRU eviction of computed ranges under a memory limit (§2.5).

    The store itself is schema-free; bookkeeping lives beside the data:
    a {e status} range map per table records which output ranges are
    fresh, and an {e updater} interval tree per table reacts to writes. *)

module Table = Pequod_store.Table
module Store = Pequod_store.Store
module Interval_map = Pequod_store.Interval_map
module Range_map = Pequod_store.Range_map
module Lru = Pequod_store.Lru
module Pattern = Pequod_pattern.Pattern
module Joinspec = Pequod_pattern.Joinspec

type change = Operator.change = Insert | Update | Remove

(* Stored value plus the bytes charged against the memory budget (copy
   joins with value sharing enabled charge only a pointer). *)
type cell = { data : string; charged : int }

let pointer_cost = 8

type join = { jid : int; spec : Joinspec.t }

(* A partial-invalidation log entry: a logged check-source change to be
   applied when the output range is next queried (§3.2, [29]). *)
type log_entry = {
  le_join : join;
  le_source : int;
  le_key : string;
  le_change : change;
  le_bindings : string option array;
  le_residual : Pattern.residual option;
}

type st_state =
  | Valid of { expires : float option } (* snapshot joins carry an expiry *)
  | Invalid (* complete invalidation: recompute from scratch *)
  | Pending of { log : log_entry list; len : int }
      (* partial invalidation, newest first; [len] entries *)

type status = { mutable state : st_state }

(* What a subtable notes: the status piece that last answered a read in
   it, checked before use ([warm_read]). *)
type note = status Range_map.piece_ref

(* A cover is one materialized execution of one join over one output
   range: it owns the updater contexts installed during that execution,
   the output hint, and an LRU slot for eviction. *)
type cover = {
  co_join : join;
  co_lo : string;
  co_hi : string;
  mutable co_contexts : context list; (* newest first *)
  mutable co_hint : cell Table.handle option;
  mutable co_lru : cover Lru.entry option;
}

(* One entry of a table's updater tree: the (join, source, kind) it
   serves over its range, and the contexts each write runs. Combining
   (§3.2) puts the contexts of every cover installing that range on one
   entry; the entry goes with its last context. *)
and updater = {
  up_join : join;
  up_source : int;
  up_kind : [ `Eager | `Invalidate ];
  mutable up_contexts : context list; (* newest first *)
}

(* One cover's stake in one entry: the bindings a write must match. A
   context sits in exactly two lists, its entry's and its cover's. *)
and context = {
  cx_bindings : string option array;
  cx_residual : Pattern.residual option;
  cx_cover : cover;
  cx_entry : updater Interval_map.handle;
}

type tbl_meta = {
  status : status Range_map.t;
  updaters : updater Interval_map.t;
  mutable present : unit Range_map.t option; (* Some when a resolver governs this table *)
  (* the subset of [present] installed by [mark_present] (home-partition
     ownership). Only these ranges are durable: resolver-fetched presence
     is cache state, refetchable, and must NOT survive a restart — a
     recovered range without its subscription would serve frozen data *)
  mutable owned : unit Range_map.t option;
  (* per-range version stamps (session consistency, docs/SESSIONS.md):
     on ranges this server is authoritative for, a counter bumped once
     per public mutation; on fetched ranges, the owner's stamp as
     set by the [Subscribed] snapshot's feed and raised by [Notify] push
     trailers.
     One map serves both roles — a migration flips a range from fetched
     to owned and the counter continues where the feed left it *)
  mutable stamps : int Range_map.t option;
}

(* Resolver answers for a missing base range (§3.3). The host fetches a
   deferred range itself and hands it in through [feed_base]. *)
type resolve_result =
  | Deferred (* fetch it; retry after [feed_base] *)
  | Local (* this table is not backed; treat as present *)

type resolver = table:string -> lo:string -> hi:string -> resolve_result

(* Every scan produces one of these: pairs, or the base ranges to fetch
   before retrying. *)
type scan_result =
  [ `Ok of (string * string) list
  | `Missing of (string * string * string) list ]

(* Client-level state transitions, as seen by the durability subsystem
   (lib/persist). Only API-level mutations are reported: writes the engine
   derives itself (join materialization) are recomputed on recovery, not
   replayed. *)
type mutation =
  | M_put of string * string
  | M_remove of string
  | M_put_batch of (string * string) list (* one client batch, argument order *)
  | M_add_join of string (* canonical join text *)
  | M_present of string * string * string (* table, lo, hi now locally owned *)

exception Need_fetch of (string * string * string) (* table, lo, hi *)
exception Join_cycle of string

(* Pre-resolved registry handles for the engine's hot paths: recording an
   event is one field load and one gated store, never a name lookup. The
   counter names are the registry's public catalogue (docs/OBSERVABILITY.md). *)
type metrics = {
  puts : Obs.Counter.t; (* store.put *)
  removes : Obs.Counter.t; (* store.remove *)
  updater_runs : Obs.Counter.t; (* updater.run *)
  scans : Obs.Counter.t; (* op.scan *)
  scans_fast : Obs.Counter.t; (* op.scan_fast *)
  gets : Obs.Counter.t; (* op.get *)
  invalidations : Obs.Counter.t; (* updater.invalidate *)
  eager_value : Obs.Counter.t; (* updater.eager_value *)
  eager_check : Obs.Counter.t; (* updater.eager_check *)
  agg_recompute : Obs.Counter.t; (* aggregate.recompute *)
  combined : Obs.Counter.t; (* updater.combined *)
  installed : Obs.Counter.t; (* updater.installed *)
  dup_checks : Obs.Counter.t; (* updater.dup_checks *)
  exec_runs : Obs.Counter.t; (* exec.run *)
  probes : Obs.Counter.t; (* exec.probe *)
  resolver_deferred : Obs.Counter.t; (* resolver.deferred *)
  recomputes : Obs.Counter.t; (* exec.recompute_region *)
  apply_logs : Obs.Counter.t; (* exec.apply_log *)
  evictions : Obs.Counter.t; (* evict.cover *)
  pulls : Obs.Counter.t; (* exec.pull *)
  put_batches : Obs.Counter.t; (* op.put_batch *)
  scan_ns : Obs.Histogram.t; (* op.scan.ns *)
  scan_pairs : Obs.Histogram.t; (* op.scan.pairs *)
  put_bytes : Obs.Histogram.t; (* store.put.bytes *)
  put_batch_size : Obs.Histogram.t; (* op.put_batch.size *)
}

let make_metrics obs =
  {
    puts = Obs.counter obs "store.put";
    removes = Obs.counter obs "store.remove";
    updater_runs = Obs.counter obs "updater.run";
    scans = Obs.counter obs "op.scan";
    scans_fast = Obs.counter obs "op.scan_fast";
    gets = Obs.counter obs "op.get";
    invalidations = Obs.counter obs "updater.invalidate";
    eager_value = Obs.counter obs "updater.eager_value";
    eager_check = Obs.counter obs "updater.eager_check";
    agg_recompute = Obs.counter obs "aggregate.recompute";
    combined = Obs.counter obs "updater.combined";
    installed = Obs.counter obs "updater.installed";
    dup_checks = Obs.counter obs "updater.dup_checks";
    exec_runs = Obs.counter obs "exec.run";
    probes = Obs.counter obs "exec.probe";
    resolver_deferred = Obs.counter obs "resolver.deferred";
    recomputes = Obs.counter obs "exec.recompute_region";
    apply_logs = Obs.counter obs "exec.apply_log";
    evictions = Obs.counter obs "evict.cover";
    pulls = Obs.counter obs "exec.pull";
    put_batches = Obs.counter obs "op.put_batch";
    scan_ns = Obs.histogram obs "op.scan.ns";
    scan_pairs = Obs.histogram obs "op.scan.pairs";
    put_bytes = Obs.histogram obs "store.put.bytes";
    put_batch_size = Obs.histogram obs "op.put_batch.size";
  }

type t = {
  store : (cell, note) Store.t;
  obs : Obs.t; (* per-server metrics registry + trace ring *)
  hot : metrics;
  config : Config.t;
  mutable joins : join list; (* install order *)
  meta : (string, tbl_meta) Hashtbl.t;
  covers : (int, cover Range_map.t) Hashtbl.t; (* join id -> disjoint covers *)
  lru : cover Lru.t;
  mutable value_bytes : int;
  mutable entries : int; (* live updater entries, all tables (updater.entries) *)
  mutable contexts : int; (* live updater contexts (updater.contexts) *)
  mutable next_jid : int;
  mutable resolver : resolver option;
  mutable on_mutation : (mutation -> unit) option; (* durability hook *)
  (* While a scan runs with a resolver installed (collect mode), every
     [Deferred] source range is recorded here instead of aborting the
     scan at the first miss ([Need_fetch]); the scan returns the full
     deduplicated set so the host can fetch all of it as one burst.
     [None] outside a scan and on a server with no resolver. *)
  mutable deferred_acc : (string * string * string) list ref option;
}

let create ?config () =
  let config = match config with Some c -> c | None -> Config.default () in
  let obs = Obs.create () in
  {
    store = Store.create ~dummy:{ data = ""; charged = 0 } ();
    obs;
    hot = make_metrics obs;
    config;
    joins = [];
    meta = Hashtbl.create 16;
    covers = Hashtbl.create 16;
    lru = Lru.create ();
    value_bytes = 0;
    entries = 0;
    contexts = 0;
    next_jid = 0;
    resolver = None;
    on_mutation = None;
    deferred_acc = None;
  }

let config t = t.config
let obs t = t.obs

let counter t name = Obs.counter_value t.obs name
let set_resolver t r = t.resolver <- Some r
let set_mutation_hook t f = t.on_mutation <- Some f
let clear_mutation_hook t = t.on_mutation <- None
let emit t m = match t.on_mutation with Some f -> f m | None -> ()

let meta t name =
  match Hashtbl.find_opt t.meta name with
  | Some m -> m
  | None ->
    let m = { status = Range_map.create ~dup:(fun st -> { state = st.state }) ();
              updaters = Interval_map.create ();
              present = None;
              owned = None;
              stamps = None }
    in
    Hashtbl.add t.meta name m;
    m

let covers_of t jid =
  match Hashtbl.find_opt t.covers jid with
  | Some rm -> rm
  | None ->
    let rm = Range_map.create () in
    Hashtbl.add t.covers jid rm;
    rm

(** Total approximate resident bytes: keys, nodes, values. *)
let memory_bytes t = Store.memory_bytes t.store + t.value_bytes

let store_ops t = Store.total_ops t.store

let now t = t.config.Config.now ()

let in_cover cover key =
  String.compare cover.co_lo key <= 0 && String.compare key cover.co_hi < 0

(* ------------------------------------------------------------------ *)
(* Join installation                                                   *)

(** Install a cache join. Rejects joins that would make the dependency
    graph between tables cyclic (§3's recursion check, extended to
    indirect cycles through chained joins). *)
let add_join t spec =
  let out_table = Pattern.table (Joinspec.output spec) in
  let deps j =
    List.map (fun s -> Pattern.table s.Joinspec.pattern) (Joinspec.sources j)
  in
  (* edge: out table of join -> source tables; a cycle means recursion *)
  let edges =
    (out_table, deps spec)
    :: List.map (fun j -> (Pattern.table (Joinspec.output j.spec), deps j.spec)) t.joins
  in
  let rec reachable src visited =
    if List.mem src visited then visited
    else
      let visited = src :: visited in
      List.fold_left
        (fun acc (o, ds) -> if String.equal o src then List.fold_left (fun a d -> reachable d a) acc ds else acc)
        visited edges
  in
  let closure = List.concat_map (fun d -> reachable d []) (deps spec) in
  if List.mem out_table closure then
    Error (Printf.sprintf "join on table %s creates a dependency cycle" out_table)
  else begin
    let join = { jid = t.next_jid; spec } in
    t.next_jid <- t.next_jid + 1;
    (* §4.1: every table the join names splits where its keys first name
       a slot value ([t|ann|]), so a read of one user's range stays in
       one small tree *)
    if t.config.Config.subtables then
      List.iter
        (fun p ->
          Option.iter (Store.add_boundary t.store (Pattern.table p)) (Pattern.boundary_depth p))
        (Joinspec.output spec :: List.map (fun s -> s.Joinspec.pattern) (Joinspec.sources spec));
    t.joins <- t.joins @ [ join ];
    emit t (M_add_join (Joinspec.to_string spec));
    Ok ()
  end

let add_join_text t text =
  match Joinspec.parse text with
  | Error msg -> Error msg
  | Ok spec -> add_join t spec

let add_join_exn t text =
  match add_join_text t text with Ok () -> () | Error msg -> invalid_arg msg

let joins t = List.map (fun j -> j.spec) t.joins

(* ------------------------------------------------------------------ *)
(* The mutually recursive engine core                                  *)

let source_array spec = Joinspec.sources_array spec

(* Union of two binding arrays; [None] on any conflicting slot. *)
let merge_bindings a b =
  let n = max (Array.length a) (Array.length b) in
  let out = Array.make n None in
  let ok = ref true in
  for i = 0 to n - 1 do
    let va = if i < Array.length a then a.(i) else None in
    let vb = if i < Array.length b then b.(i) else None in
    match (va, vb) with
    | Some x, Some y when not (String.equal x y) -> ok := false
    | Some x, _ -> out.(i) <- Some x
    | None, v -> out.(i) <- v
  done;
  if !ok then Some out else None

(* Does [sub]'s every binding also appear, equal, in [sup]? *)
let bindings_subsume ~sub ~sup =
  let n = min (Array.length sub) (Array.length sup) in
  let ok = ref true in
  for i = 0 to n - 1 do
    match (sub.(i), sup.(i)) with
    | Some a, Some b when not (String.equal a b) -> ok := false
    | Some _, None -> ok := false
    | _ -> ()
  done;
  Array.iteri (fun i v -> if i >= n && v <> None then ok := false) sub;
  !ok

(* merge adjacent Valid status pieces so warm reads see one piece *)
let coalesce_valid m ~lo ~hi =
  Range_map.coalesce m.status ~lo ~hi ~eq:(fun a b ->
      match (a.state, b.state) with
      | Valid { expires = None }, Valid { expires = None } -> true
      | Valid { expires = Some x }, Valid { expires = Some y } -> x = y
      | _ -> false)

(* High-water mark of the collect-mode deferral list: a region whose
   probe recorded new misses is not built, and one whose execution did
   is not marked Valid, or output computed from absent sources would
   freeze as fresh. *)
let deferred_mark t = match t.deferred_acc with Some acc -> List.length !acc | None -> 0

(* The live entries serving [source_idx] of [join] with [kind] over
   exactly [\[slo, shi)]: at most one under combining. *)
let entries_for m join ~source_idx ~kind ~slo ~shi =
  List.filter
    (fun e ->
      let up = Interval_map.handle_data e in
      up.up_join.jid = join.jid && up.up_source = source_idx && up.up_kind = kind)
    (Interval_map.exact m.updaters ~lo:slo ~hi:shi)

(* Does [cover] hold a context with [bindings] on one of [entries]? Such
   a context sits in both the cover's list and its entry's, so the two
   are walked in lockstep and the shorter bounds the scan: a cover with
   thousands of sources pays for the entry's few contexts, a popular
   entry for the cover's few. [checks] counts the contexts compared. *)
let holds_context checks cover entries bindings =
  let rec go mine theirs rest =
    match (mine, theirs) with
    | [], _ -> false
    | _, [] -> (
      match rest with
      | e :: rest -> go mine (Interval_map.handle_data e).up_contexts rest
      | [] -> false)
    | a :: mine, b :: theirs ->
      Obs.Counter.add checks 2;
      (List.memq a.cx_entry entries && a.cx_bindings = bindings)
      || (b.cx_cover == cover && b.cx_bindings = bindings)
      || go mine theirs rest
  in
  go cover.co_contexts [] entries

(* Unlink [cx] from its entry, deleting the entry with its last context;
   the caller unlinks it from its cover. *)
let detach_context t cx =
  let up = Interval_map.handle_data cx.cx_entry in
  up.up_contexts <- List.filter (fun c -> c != cx) up.up_contexts;
  t.contexts <- t.contexts - 1;
  if up.up_contexts = [] then begin
    let src = (source_array up.up_join.spec).(up.up_source) in
    Interval_map.remove (meta t (Pattern.table src.Joinspec.pattern)).updaters cx.cx_entry;
    t.entries <- t.entries - 1
  end

(* Release every context of a cover being torn down, evicted or rolled
   back: a combined entry keeps the other covers' contexts. *)
let release_cover t cover =
  List.iter (detach_context t) cover.co_contexts;
  cover.co_contexts <- []

let rec apply_put ?hint ?(shared = false) t key data =
  Obs.Counter.incr t.hot.puts;
  Obs.Histogram.observe t.hot.put_bytes (String.length data);
  Strkey.validate key;
  let tbl = Store.table_of_key t.store key in
  let charged =
    if shared && t.config.Config.value_sharing then pointer_cost else String.length data
  in
  let data = if shared && not t.config.Config.value_sharing then String.sub data 0 (String.length data) else data in
  let handle, old = Table.put ?hint tbl key { data; charged } in
  (match old with Some oc -> t.value_bytes <- t.value_bytes - oc.charged | None -> ());
  t.value_bytes <- t.value_bytes + charged;
  let change = if old = None then Insert else Update in
  notify t key ~old_value:(Option.map (fun c -> c.data) old) ~new_value:(Some data) ~change;
  handle

and apply_remove t key =
  let tbl = Store.table_of_key t.store key in
  match Table.remove tbl key with
  | None -> ()
  | Some cell ->
    Obs.Counter.incr t.hot.removes;
    t.value_bytes <- t.value_bytes - cell.charged;
    notify t key ~old_value:(Some cell.data) ~new_value:None ~change:Remove

(* Every write runs the updaters stabbing the key (§3.2). *)
and notify t key ~old_value ~new_value ~change =
  fire t (meta t (Store.table_name_of key)) key ~old_value ~new_value ~change

(* [notify] with the key's table meta already resolved: one stab, then
   every context of every hit. The hits are collected before any fires,
   so an updater installed by this key's own firing waits for the next
   write, whether the writes arrive one by one or as a batch. *)
and fire t m key ~old_value ~new_value ~change =
  if Interval_map.size m.updaters > 0 then begin
    let hits = ref [] in
    Interval_map.stab m.updaters key (fun e -> hits := Interval_map.handle_data e :: !hits);
    List.iter
      (fun up ->
        List.iter
          (fun cx -> run_context t up cx key ~old_value ~new_value ~change)
          up.up_contexts)
      !hits
  end

and run_context t up cx key ~old_value ~new_value ~change =
  Obs.Counter.incr t.hot.updater_runs;
  let src = (source_array up.up_join.spec).(up.up_source) in
  match Pattern.match_key src.Joinspec.pattern key ~bindings:cx.cx_bindings with
  | None -> ()
  | Some b -> (
    match up.up_kind with
    | `Eager ->
      if up.up_source = Joinspec.value_source_index up.up_join.spec then
        eager_value_apply t up cx b ~old_value ~new_value ~change
      else eager_check_apply t up cx b ~change
    | `Invalidate -> invalidate_apply t up cx b key ~change)

(* Eager reaction on the value source: copy or adjust an aggregate. *)
and eager_value_apply t up cx b ~old_value ~new_value ~change =
  Obs.Counter.incr t.hot.eager_value;
  let join = up.up_join in
  let out = Joinspec.output join.spec in
  match Pattern.build_key out b with
  | exception Invalid_argument _ -> ()
  | okey ->
    if in_cover cx.cx_cover okey then begin
      match Joinspec.value_op join.spec with
      | Joinspec.Copy -> (
        match change with
        | Insert | Update -> (
          match new_value with
          | Some v -> put_output t cx.cx_cover okey v ~shared:true
          | None -> ())
        | Remove -> apply_remove t okey)
      | Joinspec.Count | Joinspec.Sum | Joinspec.Min | Joinspec.Max -> (
        let op = Joinspec.value_op join.spec in
        let current = Option.map (fun c -> c.data) (Store.get t.store okey) in
        match Operator.incremental op ~current ~change ~old_value ~new_value with
        | Operator.Set v -> put_output t cx.cx_cover okey v ~shared:false
        | Operator.Delete -> apply_remove t okey
        | Operator.Recompute -> recompute_aggregate t join cx b okey
        | Operator.Nothing -> ())
      | Joinspec.Check -> assert false
    end

(* Eager reaction on a check source (the non-default policy, used by the
   maintenance-policy ablation): recompute the binding immediately. *)
and eager_check_apply t up cx b ~change =
  Obs.Counter.incr t.hot.eager_check;
  match change with
  | Update -> () (* check values are not interesting *)
  | Insert -> (
    try
      exec_sources t ~active:[] up.up_join ~bindings:b ~residual:cx.cx_residual
        ~out_range:(cx.cx_cover.co_lo, cx.cx_cover.co_hi)
        ~mode:(`Materialize cx.cx_cover) ~skip_source:up.up_source
    with Need_fetch _ ->
      (* a source range is absent and its resolver deferred (an
         asynchronous host fetches only for scans): give the cover up.
         The next read recomputes it wholesale, collecting the miss. *)
      let m = meta t (Pattern.table (Joinspec.output up.up_join.spec)) in
      Range_map.update_range m.status ~lo:cx.cx_cover.co_lo ~hi:cx.cx_cover.co_hi
        (fun _ _ stv ->
          Option.iter (fun st -> st.state <- Invalid) stv;
          stv))
  | Remove ->
    retract_binding t up.up_join b ~lo:cx.cx_cover.co_lo ~hi:cx.cx_cover.co_hi

(* Lazy reaction on a check source: log a partial invalidation against the
   affected output subrange, escalating to complete invalidation when the
   log grows too long (§3.2). *)
and invalidate_apply t up cx b key ~change =
  if change <> Update then begin
    let join = up.up_join in
    let out = Joinspec.output join.spec in
    let clo, chi = Pattern.containing_range out ~bindings:b ~residual:cx.cx_residual in
    match Strkey.range_inter (clo, chi) (cx.cx_cover.co_lo, cx.cx_cover.co_hi) with
    | None -> ()
    | Some (lo, hi) ->
      Obs.Counter.incr t.hot.invalidations;
      let m = meta t (Pattern.table out) in
      let entry =
        { le_join = join; le_source = up.up_source; le_key = key; le_change = change;
          le_bindings = cx.cx_bindings; le_residual = cx.cx_residual }
      in
      let limit = t.config.Config.pending_log_limit in
      Range_map.update_range m.status ~lo ~hi (fun _ _ stv ->
          match stv with
          | None -> None (* unknown: nothing materialized to invalidate *)
          | Some st ->
            (match st.state with
            | Valid _ -> st.state <- Pending { log = [ entry ]; len = 1 }
            | Pending { len; _ } when len >= limit -> st.state <- Invalid
            | Pending { log; len } -> st.state <- Pending { log = entry :: log; len = len + 1 }
            | Invalid -> ());
            Some st)
  end

(* Remove the outputs and value-source updater contexts a vanished check
   binding was supporting (subscription removal), restricted to the output
   region [lo, hi) being repaired — other regions carry their own log
   entries and repair themselves when queried. *)
and retract_binding t join b ~lo ~hi =
  let out = Joinspec.output join.spec in
  let olo, ohi = Pattern.containing_range out ~bindings:b ~residual:None in
  let olo = Strkey.max_str olo lo and ohi = Strkey.min_str ohi hi in
  if String.compare olo ohi < 0 then begin
    let doomed =
      Store.fold_range t.store ~lo:olo ~hi:ohi ~init:[] (fun acc k _ ->
          match Pattern.match_key out k ~bindings:b with Some _ -> k :: acc | None -> acc)
    in
    List.iter (fun k -> apply_remove t k) doomed;
    (* prune value-source updater contexts subsumed by this binding, for
       covers that overlap the repaired region *)
    let vs = Joinspec.value_source join.spec in
    let slo, shi = Pattern.containing_range vs.Joinspec.pattern ~bindings:b ~residual:None in
    let m = meta t (Pattern.table vs.Joinspec.pattern) in
    let vs_idx = Joinspec.value_source_index join.spec in
    let doomed = ref [] in
    Interval_map.iter_overlapping m.updaters ~lo:slo ~hi:shi (fun e ->
        let up = Interval_map.handle_data e in
        if up.up_join.jid = join.jid && up.up_source = vs_idx then
          List.iter
            (fun cx ->
              if
                bindings_subsume ~sub:b ~sup:cx.cx_bindings
                && Strkey.range_overlaps (cx.cx_cover.co_lo, cx.cx_cover.co_hi) (lo, hi)
              then doomed := cx :: !doomed)
            up.up_contexts);
    (* gone from the cover too, so a later heal installs it again *)
    List.iter
      (fun cx ->
        detach_context t cx;
        cx.cx_cover.co_contexts <- List.filter (fun c -> c != cx) cx.cx_cover.co_contexts)
      !doomed
  end

and put_output t cover okey data ~shared =
  let hint = if t.config.Config.output_hints then cover.co_hint else None in
  let handle = apply_put ?hint ~shared t okey data in
  if t.config.Config.output_hints then cover.co_hint <- Some handle

(* Recompute one aggregate group from scratch (min/max retraction). *)
and recompute_aggregate t join cx b okey =
  Obs.Counter.incr t.hot.agg_recompute;
  let vs = Joinspec.value_source join.spec in
  (* restrict to the group key's slots: the aggregate refolds over every
     source key of the group, not just the one that changed *)
  let out_slots = Pattern.slots (Joinspec.output join.spec) in
  let b = Array.mapi (fun i v -> if List.mem i out_slots then v else None) b in
  let slo, shi = Pattern.containing_range vs.Joinspec.pattern ~bindings:b ~residual:None in
  let values =
    Store.fold_range t.store ~lo:slo ~hi:shi ~init:[] (fun acc k cell ->
        match Pattern.match_key vs.Joinspec.pattern k ~bindings:b with
        | Some _ -> cell.data :: acc
        | None -> acc)
  in
  match Operator.fold_aggregate (Joinspec.value_op join.spec) (List.rev values) with
  | Some v -> put_output t cx.cx_cover okey v ~shared:false
  | None -> apply_remove t okey

(* Install (or combine, §3.2) an updater for [source_idx] of [join] over
   source range [slo, shi), maintaining [cover] under [bindings]. One
   context per (cover, entry, bindings): repeated lazy heals of the same
   subscription add nothing. *)
and install_updater t join ~source_idx ~kind ~slo ~shi ~bindings ~residual ~cover =
  if String.compare slo shi < 0 then begin
    let src = (source_array join.spec).(source_idx) in
    let m = meta t (Pattern.table src.Joinspec.pattern) in
    let entries = entries_for m join ~source_idx ~kind ~slo ~shi in
    if not (holds_context t.hot.dup_checks cover entries bindings) then begin
      let e =
        match entries with
        | e :: _ when t.config.Config.combine_updaters ->
          Obs.Counter.incr t.hot.combined;
          e
        | _ ->
          Obs.Counter.incr t.hot.installed;
          t.entries <- t.entries + 1;
          Interval_map.add m.updaters ~lo:slo ~hi:shi
            { up_join = join; up_source = source_idx; up_kind = kind; up_contexts = [] }
      in
      let cx = { cx_bindings = bindings; cx_residual = residual; cx_cover = cover; cx_entry = e } in
      let up = Interval_map.handle_data e in
      up.up_contexts <- cx :: up.up_contexts;
      cover.co_contexts <- cx :: cover.co_contexts;
      t.contexts <- t.contexts + 1
    end
  end

(* The nested-loop executor (Figs 3 and 5). [skip_source] marks a source
   already bound by the caller (log application / eager check insert).
   [mode] is [`Materialize cover] (install results, updaters, hints),
   [`Collect acc] (pull joins: just produce pairs) or [`Probe]: make every
   source range the join reads ready, and nothing else. A probe installs
   no updater, emits no output, and stops at the last source it must
   make ready instead of reading its keys, which bind no further source. *)
and exec_sources t ~active join ~bindings ~residual ~out_range ~mode ~skip_source =
  let probe = match mode with `Probe -> true | `Materialize _ | `Collect _ -> false in
  Obs.Counter.incr (if probe then t.hot.probes else t.hot.exec_runs);
  let spec = join.spec in
  let sources = source_array spec in
  let nsources = Array.length sources in
  let last = if skip_source = nsources - 1 then nsources - 2 else nsources - 1 in
  let vs_idx = Joinspec.value_source_index spec in
  let vop = Joinspec.value_op spec in
  let out = Joinspec.output spec in
  let olo, ohi = out_range in
  let install = match mode with
    | `Materialize _ when Joinspec.maintenance spec = Joinspec.Push -> true
    | _ -> false
  in
  let agg = if Joinspec.is_aggregate vop then Some (Hashtbl.create 16) else None in
  (* copy emissions are buffered and flushed in key order, so the output
     hint turns materialization into sequential appends *)
  let copy_buf = ref [] in
  let emit b value =
    match Pattern.build_key out b with
    | exception Invalid_argument _ -> ()
    | okey ->
      if String.compare olo okey <= 0 && String.compare okey ohi < 0 then begin
        match agg with
        | Some groups ->
          let prev = match Hashtbl.find_opt groups okey with Some l -> l | None -> [] in
          Hashtbl.replace groups okey (value :: prev)
        | None -> (
          match mode with
          | `Materialize _ -> copy_buf := (okey, value) :: !copy_buf
          | `Collect acc -> acc := (okey, value) :: !acc
          | `Probe -> ())
      end
  in
  let rec loop i b value =
    if i >= nsources then (match value with Some v -> emit b v | None -> ())
    else if i = skip_source then
      (* pre-bound source; its key contributed bindings already, and check
         sources contribute no value *)
      loop (i + 1) b value
    else begin
      let src = sources.(i) in
      let slo, shi = Pattern.containing_range src.Joinspec.pattern ~bindings:b ~residual in
      if String.compare slo shi < 0 then begin
        ensure_source_ready t ~active (Pattern.table src.Joinspec.pattern) ~lo:slo ~hi:shi;
        (if install then
           match mode with
           | `Materialize cover ->
             let kind =
               if src.Joinspec.op = Joinspec.Check && t.config.Config.lazy_checks then `Invalidate
               else `Eager
             in
             (* install over the canonical residual-free range: updaters
                from different queried subranges then combine into one
                entry instead of piling up overlapping intervals *)
             let ilo, ihi =
               if residual = None then (slo, shi)
               else Pattern.containing_range src.Joinspec.pattern ~bindings:b ~residual:None
             in
             install_updater t join ~source_idx:i ~kind ~slo:ilo ~shi:ihi ~bindings:b ~residual
               ~cover
           | `Collect _ | `Probe -> ());
        (* safe to iterate live: emissions are buffered until the loop
           finishes, so no store mutation happens during iteration *)
        if not (probe && i = last) then
          Store.iter_range t.store ~lo:slo ~hi:shi (fun k cell ->
              match Pattern.match_key src.Joinspec.pattern k ~bindings:b with
              | Some b' ->
                let value = if i = vs_idx then Some cell.data else value in
                loop (i + 1) b' value
              | None -> ())
      end
    end
  in
  loop 0 bindings None;
  (match (mode, !copy_buf) with
  | `Materialize cover, (_ :: _ as buf) ->
    (* stable sort keeps last-wins order for ambiguous joins *)
    List.iter
      (fun (okey, v) -> put_output t cover okey v ~shared:true)
      (List.stable_sort (fun (a, _) (b, _) -> String.compare a b) (List.rev buf))
  | _ -> ());
  match agg with
  | None -> ()
  | Some groups ->
    let groups = Hashtbl.fold (fun k vs acc -> (k, List.rev vs) :: acc) groups [] in
    List.iter
      (fun (okey, values) ->
        match Operator.fold_aggregate vop values with
        | Some v -> (
          match mode with
          | `Materialize cover -> put_output t cover okey v ~shared:false
          | `Collect acc -> acc := (okey, v) :: !acc
          | `Probe -> ())
        | None -> ())
      (List.sort compare groups)

(* Make a base/source range available locally, resolving through other
   joins (§3.3 case 1) or the resolver (cases 2 and 3). *)
and ensure_source_ready t ~active table ~lo ~hi =
  (* chained joins: if any join outputs into this table, validate first *)
  let feeds =
    List.exists
      (fun j ->
        Joinspec.maintenance j.spec <> Joinspec.Pull
        && String.equal (Pattern.table (Joinspec.output j.spec)) table)
      t.joins
  in
  if feeds then validate_range t ~active ~lo ~hi;
  match t.resolver with
  | None -> ()
  | Some resolve ->
    let m = meta t table in
    let present =
      match m.present with
      | Some p -> p
      | None ->
        let p = Range_map.create () in
        m.present <- Some p;
        p
    in
    let missing = ref [] in
    Range_map.iter_cover present ~lo ~hi (fun plo phi v ->
        if v = None then missing := (plo, phi) :: !missing);
    List.iter
      (fun (plo, phi) ->
        match resolve ~table ~lo:plo ~hi:phi with
        (* resolver-fetched presence and pairs are cache, not client
           state: nothing is emitted to the durability hook, so recovery
           refetches (and re-subscribes) instead of serving a frozen copy *)
        | Local -> Range_map.set present ~lo:plo ~hi:phi ()
        | Deferred -> (
          Obs.Counter.incr t.hot.resolver_deferred;
          (* collect mode: record the miss and keep scanning so one pass
             surfaces every missing range; the range stays absent (not
             marked present) and its region is left not-Valid, so the
             retry after the fetch recomputes it with real data *)
          match t.deferred_acc with
          | Some acc -> acc := (table, plo, phi) :: !acc
          | None -> raise (Need_fetch (table, plo, phi))))
      (List.rev !missing)

(* Bring every push/snapshot join's output in [lo, hi) up to date:
   compute unknown ranges, recompute invalid ones, apply pending logs. *)
and validate_range t ~active ~lo ~hi =
  (* per-join cover of the request *)
  let jcovers =
    List.filter_map
      (fun j ->
        if Joinspec.maintenance j.spec = Joinspec.Pull then None
        else
          let out = Joinspec.output j.spec in
          match Pattern.bind_range out ~lo ~hi ~nslots:(Joinspec.nslots j.spec) with
          | None -> None
          | Some (b0, residual) ->
            let clo, chi = Pattern.containing_range out ~bindings:b0 ~residual in
            (match Strkey.range_inter (clo, chi) (lo, hi) with
            | None -> None
            | Some cov -> Some (j, b0, residual, cov)))
      t.joins
  in
  if jcovers <> [] then begin
    (* group by output table *)
    let tables =
      List.sort_uniq String.compare
        (List.map (fun (j, _, _, _) -> Pattern.table (Joinspec.output j.spec)) jcovers)
    in
    List.iter
      (fun table ->
        let m = meta t table in
        let mine = List.filter (fun (j, _, _, _) -> String.equal (Pattern.table (Joinspec.output j.spec)) table) jcovers in
        let span_lo = List.fold_left (fun acc (_, _, _, (l, _)) -> Strkey.min_str acc l) hi mine in
        let span_hi = List.fold_left (fun acc (_, _, _, (_, h)) -> Strkey.max_str acc h) lo mine in
        if String.compare span_lo span_hi < 0 then begin
          let pieces = ref [] in
          Range_map.iter_cover m.status ~lo:span_lo ~hi:span_hi (fun plo phi st ->
              pieces := (plo, phi, st) :: !pieces);
          List.iter
            (fun (plo, phi, st) ->
              let involved =
                List.filter (fun (_, _, _, cov) -> Strkey.range_overlaps cov (plo, phi)) mine
              in
              if involved <> [] then begin
                match st with
                | Some { state = Valid { expires = None } } -> touch_covers t involved
                | Some { state = Valid { expires = Some e } } when now t < e ->
                  touch_covers t involved
                | Some { state = Pending _ } -> heal_piece t ~active m table ~plo ~phi
                | Some { state = Valid _ } (* expired snapshot *)
                | Some { state = Invalid } | None ->
                  recompute_region t ~active m table ~plo ~phi
              end)
            (List.rev !pieces)
        end)
      tables
  end

(* Heal the whole [Pending] piece the read's clip [\[plo, phi)] lies in:
   healing only the clip would leave the rest [Pending] with the same
   log, the next invalidation would split it again, and pieces and logs
   would pile up. The state is re-read, since an earlier piece's work may
   have changed it. *)
and heal_piece t ~active m table ~plo ~phi =
  match Range_map.find m.status plo with
  | Some (wlo, whi, { state = Pending { log; _ } }) ->
    apply_log t ~active m ~plo:wlo ~phi:whi (List.rev log)
  | Some (_, _, { state = Valid { expires = None } }) -> ()
  | Some (_, _, { state = Valid { expires = Some e } }) when now t < e -> ()
  | Some (_, _, { state = Valid _ | Invalid }) | None ->
    recompute_region t ~active m table ~plo ~phi

and touch_covers t involved =
  if t.config.Config.memory_limit <> None then
  List.iter
    (fun (j, _, _, (clo, chi)) ->
      List.iter
        (fun (_, _, c) -> match c.co_lru with Some e -> Lru.touch t.lru e | None -> ())
        (Range_map.overlapping (covers_of t j.jid) ~lo:clo ~hi:chi))
    involved

(* Recompute a region from scratch: expand to whole covers, tear them
   down, clear their outputs, re-execute every overlapping join, and mark
   the region valid. In collect mode the joins are probed first: when a
   source range is absent the misses are recorded and the region is left
   as it was, so a cold region is materialized once, by the retry that
   finds every source present, instead of once per fetch wave. *)
and recompute_region t ~active m table ~plo ~phi =
  let dmark = deferred_mark t in
  let t0 = Obs.tick () in
  (* expand to cover boundaries (fixpoint) so updater teardown is whole *)
  let lo = ref plo and hi = ref phi in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun j ->
        if String.equal (Pattern.table (Joinspec.output j.spec)) table then
          List.iter
            (fun (_, _, c) ->
              if String.compare c.co_lo !lo < 0 then begin lo := c.co_lo; changed := true end;
              if String.compare c.co_hi !hi > 0 then begin hi := c.co_hi; changed := true end)
            (Range_map.overlapping (covers_of t j.jid) ~lo:!lo ~hi:!hi))
      t.joins
  done;
  let lo = !lo and hi = !hi in
  (* which joins can output here? *)
  let involved =
    List.filter_map
      (fun j ->
        if
          Joinspec.maintenance j.spec = Joinspec.Pull
          || not (String.equal (Pattern.table (Joinspec.output j.spec)) table)
        then None
        else
          match Pattern.bind_range (Joinspec.output j.spec) ~lo ~hi ~nslots:(Joinspec.nslots j.spec) with
          | None -> None
          | Some (b0, residual) -> Some (j, b0, residual))
      t.joins
  in
  (* cycle guard for chained joins *)
  List.iter
    (fun (j, _, _) ->
      if List.mem j.jid active then
        raise (Join_cycle (Printf.sprintf "cyclic evaluation through %s" (Joinspec.to_string j.spec))))
    involved;
  (* each join's cover within the region *)
  let spans =
    List.filter_map
      (fun (j, b0, residual) ->
        let clo, chi = Pattern.containing_range (Joinspec.output j.spec) ~bindings:b0 ~residual in
        Option.map (fun span -> (j, b0, residual, span)) (Strkey.range_inter (clo, chi) (lo, hi)))
      involved
  in
  if Option.is_some t.deferred_acc then
    List.iter
      (fun (j, b0, residual, out_range) ->
        exec_sources t ~active:(j.jid :: active) j ~bindings:b0 ~residual ~out_range ~mode:`Probe
          ~skip_source:(-1))
      spans;
  if deferred_mark t = dmark then begin
    Obs.Counter.incr t.hot.recomputes;
    rebuild_region t ~active m ~lo ~hi involved spans;
    Obs.trace t.obs ~kind:"recompute" ~table ~lo ~hi ~dur_ns:(Obs.tock t0) ()
  end

(* [recompute_region]'s rebuild, once its probe (if any) found every
   source present: tear down the region's covers, drop their outputs,
   execute each join over its span, and mark the region Valid. *)
and rebuild_region t ~active m ~lo ~hi involved spans =
  let dmark = deferred_mark t in
  List.iter (fun (j, _, _) -> teardown_covers t j ~lo ~hi) involved;
  (* drop stale outputs of the involved joins *)
  List.iter
    (fun (j, _, _) ->
      let out = Joinspec.output j.spec in
      let nb = Array.make (Joinspec.nslots j.spec) None in
      let doomed =
        Store.fold_range t.store ~lo ~hi ~init:[] (fun acc k _ ->
            match Pattern.match_key out k ~bindings:nb with Some _ -> k :: acc | None -> acc)
      in
      List.iter (fun k -> apply_remove t k) doomed)
    involved;
  let expiry = ref None in
  List.iter
    (fun (j, b0, residual, (covlo, covhi)) ->
      let cover =
        { co_join = j; co_lo = covlo; co_hi = covhi; co_contexts = []; co_hint = None;
          co_lru = None }
      in
      (try
         exec_sources t ~active:(j.jid :: active) j ~bindings:b0 ~residual
           ~out_range:(covlo, covhi) ~mode:(`Materialize cover) ~skip_source:(-1)
       with e ->
         (* roll back the partial execution's updaters *)
         release_cover t cover;
         raise e);
      Range_map.set (covers_of t j.jid) ~lo:covlo ~hi:covhi cover;
      cover.co_lru <- Some (Lru.add t.lru cover);
      match Joinspec.maintenance j.spec with
      | Joinspec.Snapshot secs ->
        let e = now t +. secs in
        expiry := Some (match !expiry with Some e0 -> Float.min e0 e | None -> e)
      | Joinspec.Push | Joinspec.Pull -> ())
    spans;
  (* should the rebuild still meet a miss its probe did not, the region
     stays not-Valid for the retry: output computed from absent sources
     must not freeze as fresh *)
  if deferred_mark t = dmark then begin
    Range_map.set m.status ~lo ~hi { state = Valid { expires = !expiry } };
    coalesce_valid m ~lo ~hi
  end

and teardown_covers t j ~lo ~hi =
  let cm = covers_of t j.jid in
  List.iter
    (fun (_, _, c) ->
      release_cover t c;
      (match c.co_lru with Some e -> Lru.remove t.lru e | None -> ());
      Range_map.clear_range cm ~lo:c.co_lo ~hi:c.co_hi)
    (Range_map.overlapping cm ~lo ~hi)

(* Apply a partial-invalidation log to one status piece (§3.2): each
   logged check-source change is joined against the other sources,
   restricted to the piece. In collect mode the logged inserts are probed
   first, as in [recompute_region]: on a miss the piece keeps its
   [Pending] log, to be applied once the fetch lands. *)
and apply_log t ~active m ~plo ~phi entries =
  let dmark = deferred_mark t in
  if Option.is_some t.deferred_acc then
    List.iter (replay_entry t ~active m ~plo ~phi ~probe:true) entries;
  if deferred_mark t = dmark then begin
    Obs.Counter.incr t.hot.apply_logs;
    List.iter (replay_entry t ~active m ~plo ~phi ~probe:false) entries;
    (* an evicted cover's recompute may still defer: the log is then
       partly consumed, so the retry recomputes the piece wholesale *)
    let clean = deferred_mark t = dmark in
    Range_map.update_range m.status ~lo:plo ~hi:phi (fun _ _ stv ->
        Option.iter
          (fun st ->
            match st.state with
            | Pending _ -> st.state <- (if clean then Valid { expires = None } else Invalid)
            | Valid _ | Invalid -> ())
          stv;
        stv);
    if clean then coalesce_valid m ~lo:plo ~hi:phi
  end

(* One logged change, restricted to piece [\[plo, phi)]. A [~probe] run
   only makes the sources of a logged insert ready. *)
and replay_entry t ~active m ~plo ~phi ~probe e =
  let join = e.le_join in
  let src = (source_array join.spec).(e.le_source) in
  match Pattern.match_key src.Joinspec.pattern e.le_key ~bindings:e.le_bindings with
  | None -> ()
  | Some b -> (
    match e.le_change with
    | Update -> ()
    | Insert -> (
      (* find the cover this piece belongs to *)
      match Range_map.find (covers_of t join.jid) plo with
      | Some (_, _, cover) ->
        let olo = Strkey.max_str plo cover.co_lo and ohi = Strkey.min_str phi cover.co_hi in
        if String.compare olo ohi < 0 then begin
          (* derive the slot set from the piece itself so source scans
             are narrowed to exactly the queried range — the essence of
             partial invalidation: "only those tweets strictly required
             by queries" (§3.2) *)
          match
            Pattern.bind_range (Joinspec.output join.spec) ~lo:olo ~hi:ohi
              ~nslots:(Joinspec.nslots join.spec)
          with
          | None -> ()
          | Some (b0, residual_piece) -> (
            match merge_bindings b b0 with
            | None -> () (* the logged binding cannot output in this piece *)
            | Some merged ->
              exec_sources t ~active join ~bindings:merged ~residual:residual_piece
                ~out_range:(olo, ohi)
                ~mode:(if probe then `Probe else `Materialize cover)
                ~skip_source:e.le_source)
        end
      | None ->
        (* cover vanished (evicted): recompute wholesale, which probes
           for itself *)
        if not probe then
          recompute_region t ~active m (Pattern.table (Joinspec.output join.spec)) ~plo ~phi)
    | Remove ->
      (* retract outputs of this binding, restricted to the piece *)
      if not probe then begin
        let olo, ohi =
          Pattern.containing_range (Joinspec.output join.spec) ~bindings:b ~residual:e.le_residual
        in
        let olo = Strkey.max_str olo plo and ohi = Strkey.min_str ohi phi in
        if String.compare olo ohi < 0 then retract_binding t join b ~lo:olo ~hi:ohi
      end)

(* LRU eviction of computed covers under memory pressure (§2.5). *)
and maybe_evict t =
  match t.config.Config.memory_limit with
  | None -> ()
  | Some limit ->
    let guard = ref 0 in
    while memory_bytes t > limit && Lru.length t.lru > 0 && !guard < 10_000 do
      incr guard;
      match Lru.pop_lru t.lru with
      | None -> ()
      | Some c ->
        Obs.Counter.incr t.hot.evictions;
        c.co_lru <- None;
        evict_cover t c
    done

and evict_cover t c =
  let j = c.co_join in
  Obs.trace t.obs ~kind:"evict"
    ~table:(Pattern.table (Joinspec.output j.spec))
    ~lo:c.co_lo ~hi:c.co_hi ();
  release_cover t c;
  Range_map.clear_range (covers_of t j.jid) ~lo:c.co_lo ~hi:c.co_hi;
  (* remove this join's outputs and forget the range's freshness *)
  let out = Joinspec.output j.spec in
  let nb = Array.make (Joinspec.nslots j.spec) None in
  let doomed =
    Store.fold_range t.store ~lo:c.co_lo ~hi:c.co_hi ~init:[] (fun acc k _ ->
        match Pattern.match_key out k ~bindings:nb with Some _ -> k :: acc | None -> acc)
  in
  List.iter (fun k -> apply_remove t k) doomed;
  let m = meta t (Pattern.table out) in
  Range_map.clear_range m.status ~lo:c.co_lo ~hi:c.co_hi

(* ------------------------------------------------------------------ *)
(* Per-range version stamps (session consistency, docs/SESSIONS.md)    *)

let stamps_map m =
  match m.stamps with
  | Some s -> s
  | None ->
    let s = Range_map.create () in
    m.stamps <- Some s;
    s

(* highest stamp recorded anywhere in [lo, hi); 0 when none *)
let stamp_over m ~lo ~hi =
  match m.stamps with
  | None -> 0
  | Some s ->
    List.fold_left (fun acc (_, _, v) -> max acc v) 0 (Range_map.overlapping s ~lo ~hi)

(* lowest stamp over [lo, hi), counting unrecorded gaps as 0 *)
let stamp_floor m ~lo ~hi =
  match m.stamps with
  | None -> 0
  | Some s ->
    let got = ref max_int in
    Range_map.iter_cover s ~lo ~hi (fun _ _ sv ->
        got := min !got (match sv with Some v -> v | None -> 0));
    if !got = max_int then 0 else !got

let owned_piece_of m key =
  match m.owned with
  | None -> None
  | Some o -> (
    match Range_map.find o key with Some (lo, hi, ()) -> Some (lo, hi) | None -> None)

(* Bump the version stamp of every owned piece containing one of [keys]
   (all in table [tname]), once per piece per public mutation. A table no
   partition layer governs ([present = None]) is implicitly owned whole:
   a standalone or flag-mode home server is authoritative for everything
   it stores. Nothing reaches the durability hook — WAL replay re-runs
   the same public mutations in order and reproduces the stamps. *)
let bump_stamps t tname keys =
  let m = meta t tname in
  match m.present with
  | None ->
    let lo = tname ^ "|" and hi = tname ^ "}" in
    Range_map.set (stamps_map m) ~lo ~hi (stamp_over m ~lo ~hi + 1)
  | Some _ ->
    let seen = ref [] in
    List.iter
      (fun key ->
        match owned_piece_of m key with
        | None -> () (* not authoritative here: no stamp to offer *)
        | Some (lo, hi) ->
          if not (List.mem (lo, hi) !seen) then begin
            seen := (lo, hi) :: !seen;
            Range_map.set (stamps_map m) ~lo ~hi (stamp_over m ~lo ~hi + 1)
          end)
      keys

(** The stamp vector acknowledging a write of [keys]: one
    [(table, lo, hi, stamp)] entry per written key, clamped to the key
    itself — a demand built from it can only ever gate the keys the
    session actually wrote, never unrelated ranges that happen to share
    an owned piece (or another home's slice of the same table). Keys this
    server is not authoritative for yield no entry. *)
let stamps_for_keys t keys =
  List.filter_map
    (fun key ->
      let tname = Store.table_name_of key in
      match Hashtbl.find_opt t.meta tname with
      | None -> None
      | Some m ->
        let authoritative =
          match m.present with None -> true | Some _ -> owned_piece_of m key <> None
        in
        if not authoritative then None
        else
          let hi = Strkey.key_after key in
          (match stamp_over m ~lo:key ~hi with
          | 0 -> None
          | s -> Some (tname, key, hi, s)))
    keys

(** Record that this server's copy of [\[lo, hi)] reflects the owner's
    version [stamp] (a [Notify] push trailer; a snapshot's feed sets its
    stamp exactly, {!feed_base}).
    Monotone: only ever raises recorded stamps. Fetched freshness is
    cache state, like fetched presence — nothing reaches the durability
    hook; the restore path reuses this entry point because raising from
    zero is exact. *)
let set_range_stamp t ~table ~lo ~hi stamp =
  if stamp > 0 && String.compare lo hi < 0 then begin
    let m = meta t table in
    let s = stamps_map m in
    Range_map.update_range s ~lo ~hi (fun _ _ v ->
        match v with Some v when v >= stamp -> Some v | _ -> Some stamp);
    Range_map.coalesce s ~lo ~hi ~eq:Int.equal
  end

(** The stamp a [Fetch]/[Subscribed] answer carries for [\[lo, hi)]: the
    lowest stamp over the range — conservative when the clamp spans
    pieces at different versions (a too-low stamp causes at worst a
    spurious refetch, never a stale read). *)
let range_stamp t ~table ~lo ~hi =
  match Hashtbl.find_opt t.meta table with
  | None -> 0
  | Some m -> stamp_floor m ~lo ~hi

(** The sub-ranges of [demands] ([(table, lo, hi, min_stamp)] entries)
    whose local copy is present but too old: fetched pieces whose
    recorded stamp is below the demand. Owned and ungoverned pieces
    satisfy any demand (this server is the authority that produced every
    stamp a client can hold for them), and so do absent pieces (the
    scan's resolver fetches a fresh copy, at least as new as any acked
    stamp). An empty result means a scan served now meets the demand. *)
let stamp_unsatisfied t demands =
  let acc = ref [] in
  List.iter
    (fun (table, dlo, dhi, want) ->
      if want > 0 then
        match Hashtbl.find_opt t.meta table with
        | None -> () (* nothing resident: any needed fetch serves fresh data *)
        | Some { present = None; _ } -> () (* ungoverned: authoritative *)
        | Some m -> (
          match m.present with
          | None -> ()
          | Some p ->
            Range_map.iter_cover p ~lo:dlo ~hi:dhi (fun plo phi c ->
                let owned =
                  match owned_piece_of m plo with
                  | Some (_, ohi) -> String.compare phi ohi <= 0
                  | None -> false
                in
                if not owned then
                  match c with
                  | None ->
                    (* a gap in a governed table: the server holds no
                       copy, so it cannot prove the demanded version —
                       and data *derived* from an earlier copy (a join
                       output whose source was dropped) may still be
                       resident and stale. Only an actual refetch, which
                       re-records the owner's stamp, discharges this. *)
                    acc := (table, plo, phi, want) :: !acc
                  | Some _ ->
                    if stamp_floor m ~lo:plo ~hi:phi < want then
                      acc := (table, plo, phi, want) :: !acc)))
    demands;
  List.rev !acc

(** Authoritative stamps to persist in a snapshot: owned pieces, plus the
    whole-table stamps of ungoverned tables. Recorded fetched stamps are
    cache state and deliberately excluded — the refetch after recovery
    re-records them against live data. *)
let stamp_ranges t =
  let acc = ref [] in
  Hashtbl.iter
    (fun name m ->
      match m.stamps with
      | None -> ()
      | Some s -> (
        match m.present with
        | None ->
          Range_map.iter s (fun lo hi v -> if v > 0 then acc := (name, lo, hi, v) :: !acc)
        | Some _ -> (
          match m.owned with
          | None -> ()
          | Some o ->
            Range_map.iter o (fun olo ohi () ->
                Range_map.iter_cover s ~lo:olo ~hi:ohi (fun lo hi sv ->
                    match sv with
                    | Some v when v > 0 -> acc := (name, lo, hi, v) :: !acc
                    | _ -> ())))))
    t.meta;
  List.sort compare !acc

(* ------------------------------------------------------------------ *)
(* Client operations                                                   *)

let put t key value =
  ignore (apply_put t key value);
  bump_stamps t (Store.table_name_of key) [ key ];
  maybe_evict t;
  emit t (M_put (key, value))

let remove t key =
  apply_remove t key;
  bump_stamps t (Store.table_name_of key) [ key ];
  emit t (M_remove key)

(* One contiguous run of a batch: every key lives in table [tname],
   ascending. The table and its meta are resolved once, and insertion
   hints thread from each put to the next (sorted runs hit the §4.2 O(1)
   append path). Each key then fires through the same per-key stab as a
   single put, O(log n + matches): a notification batch scatters a few
   keys over a table with thousands of disjoint updaters, so anything
   spanning the whole run would walk updaters no key touches. *)
let apply_batch_run t tname run =
  let tbl = Store.table t.store tname in
  let m = meta t tname in
  let hint = ref None in
  List.iter
    (fun (key, data) ->
      Obs.Counter.incr t.hot.puts;
      Obs.Histogram.observe t.hot.put_bytes (String.length data);
      let handle, old = Table.put ?hint:!hint tbl key { data; charged = String.length data } in
      hint := Some handle;
      (match old with Some oc -> t.value_bytes <- t.value_bytes - oc.charged | None -> ());
      t.value_bytes <- t.value_bytes + String.length data;
      let change = if old = None then Insert else Update in
      fire t m key ~old_value:(Option.map (fun c -> c.data) old) ~new_value:(Some data) ~change)
    run

(** Batched write. Equivalent to the same puts applied one at a time in
    ascending key order (duplicate keys keep their argument order, so the
    last occurrence wins), but pays some per-key costs once per contiguous
    run: table resolution, insertion descents, and — at the callers'
    layers — wire framing and WAL fsyncs. Eviction runs once
    after the whole batch. Atomic with respect to validation: every key
    is checked before any store mutation. *)
let put_batch t pairs =
  if pairs <> [] then begin
    List.iter (fun (k, _) -> Strkey.validate k) pairs;
    Obs.Counter.incr t.hot.put_batches;
    Obs.Histogram.observe t.hot.put_batch_size (List.length pairs);
    (* bulk loads usually arrive presorted: a linear check then costs
       n-1 compares where the merge sort would pay n log n (comparable
       to the tree descents the batch exists to avoid). [<=] keeps
       duplicate keys in argument order, exactly like the stable sort. *)
    let rec is_sorted = function
      | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b <= 0 && is_sorted rest
      | _ -> true
    in
    let sorted =
      if is_sorted pairs then pairs
      else List.stable_sort (fun (a, _) (b, _) -> String.compare a b) pairs
    in
    let rec split_run tname acc = function
      | ((k, _) as p) :: rest when String.equal (Store.table_name_of k) tname ->
        split_run tname (p :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let rec by_table = function
      | [] -> ()
      | (k, _) :: _ as l ->
        let tname = Store.table_name_of k in
        let run, rest = split_run tname [] l in
        apply_batch_run t tname run;
        bump_stamps t tname (List.map fst run);
        by_table rest
    in
    by_table sorted;
    maybe_evict t;
    emit t (M_put_batch pairs)
  end

(* Pull joins are recomputed on every query and never cached (§3.4). *)
let pull_results t ~lo ~hi =
  let acc = ref [] in
  List.iter
    (fun j ->
      if Joinspec.maintenance j.spec = Joinspec.Pull then begin
        let out = Joinspec.output j.spec in
        match Pattern.bind_range out ~lo ~hi ~nslots:(Joinspec.nslots j.spec) with
        | None -> ()
        | Some (b0, residual) ->
          let clo, chi = Pattern.containing_range out ~bindings:b0 ~residual in
          (match Strkey.range_inter (clo, chi) (lo, hi) with
          | None -> ()
          | Some (covlo, covhi) ->
            Obs.Counter.incr t.hot.pulls;
            exec_sources t ~active:[ j.jid ] j ~bindings:b0 ~residual
              ~out_range:(covlo, covhi) ~mode:(`Collect acc) ~skip_source:(-1))
      end)
    t.joins;
  List.sort_uniq compare !acc

let has_pull_joins t =
  List.exists (fun j -> Joinspec.maintenance j.spec = Joinspec.Pull) t.joins

(* The common warm read: no pull join, one table, and one unexpired
   Valid status piece covering all of [\[lo, hi)], so every overlapping
   join's output is already fresh in the store. A read confined to one
   subtable first checks the piece noted there, as the cover's output
   hint is checked before use: still a piece of the status map, covering
   the read, Valid with no expiry. Only when the note fails is the status
   map descended, and a piece found there that passes becomes the note. *)
let warm_read t ~lo ~hi =
  let name = Store.table_name_of lo in
  (not (has_pull_joins t))
  && String.equal name (Store.table_name_of hi)
  &&
  match Hashtbl.find_opt t.meta name with
  | None -> false
  | Some m -> (
    let sub = Option.bind (Store.find_table t.store name) (Table.confined ~lo ~hi) in
    let settled p =
      match Range_map.piece_covering p ~lo ~hi with
      | Some { state = Valid { expires = None } } -> true
      | _ -> false
    in
    match Option.bind sub Table.note with
    | Some p when settled p -> true
    | _ -> (
      match Range_map.find_piece m.status lo with
      | Some p when settled p ->
        Option.iter (fun sub -> Table.set_note sub p) sub;
        true
      | Some p -> (
        match Range_map.piece_covering p ~lo ~hi with
        | Some { state = Valid { expires = Some e } } -> now t < e
        | _ -> false)
      | None -> false))

(* first [n] elements of [l] (all of [l] when shorter) *)
let rec take n l =
  match l with x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

let trace_scan t ~lo ~hi d =
  Obs.trace t.obs ~kind:"scan" ~table:(Store.table_name_of lo) ~lo ~hi ~dur_ns:d ()

(** Non-blocking scan for asynchronous deployments: either the results, or
    the base ranges that must be fetched before retrying (§3.3). One pass
    collects every missing range it can see (a check join fans out over
    all bound value ranges at once). A join may still need one attempt
    per fetch wave (fetched check rows name the value ranges to fetch
    next), but a region whose probe finds a miss is left untouched, so it
    materializes once, on the attempt that finds every source present,
    and no cover built from absent data is torn down by the retry.
    Collect mode is on exactly when a resolver is installed: with none,
    nothing can be missing, and the probe walks it adds would be wasted. *)
let scan_result ?limit t ~lo ~hi =
  Obs.Counter.incr t.hot.scans;
  let t0 = Obs.tick () in
  (* duration/size recording and tracing, skipped entirely when recording
     is off (the [List.length] below must not run on the disabled path).
     Warm hits leave no trace event: the ring keeps the scans that did
     engine work or parked, and a hit allocates no event holding its
     bounds. *)
  let finish ~warm pairs =
    if !Obs.enabled then begin
      let d = Obs.tock t0 in
      Obs.Histogram.observe t.hot.scan_ns d;
      Obs.Histogram.observe t.hot.scan_pairs (List.length pairs);
      if not warm then trace_scan t ~lo ~hi d
    end;
    `Ok pairs
  in
  (* resident pairs in [lo, hi), stopping the tree walk at [limit] rather
     than materializing the full range *)
  let bounded_stored () =
    match limit with
    | None ->
      List.rev (Store.fold_range t.store ~lo ~hi ~init:[] (fun acc k c -> (k, c.data) :: acc))
    | Some n when n <= 0 -> []
    | Some n ->
      let _, acc =
        Store.fold_range_stop t.store ~lo ~hi ~init:(0, []) (fun (cnt, acc) k c ->
            let st = (cnt + 1, (k, c.data) :: acc) in
            if cnt + 1 >= n then `Stop st else `Continue st)
      in
      List.rev acc
  in
  if warm_read t ~lo ~hi then begin
    Obs.Counter.incr t.hot.scans_fast;
    finish ~warm:true (bounded_stored ())
  end
  else begin
    (* collect mode: resolver misses accumulate here instead of aborting
       the scan at the first one, so `Missing carries the full set and an
       asynchronous host can fetch it as one burst. Saved/restored rather
       than assumed-None for re-entrancy (a resolver or hook that scans). *)
    let saved = t.deferred_acc in
    let acc = ref [] in
    let missing ranges =
      if !Obs.enabled then trace_scan t ~lo ~hi (Obs.tock t0);
      `Missing ranges
    in
    if Option.is_some t.resolver then t.deferred_acc <- Some acc;
    match
      Fun.protect ~finally:(fun () -> t.deferred_acc <- saved) (fun () ->
          validate_range t ~active:[] ~lo ~hi;
          pull_results t ~lo ~hi)
    with
    | pulled when !acc <> [] ->
      ignore pulled;
      (* first-discovery order, deduplicated: the same gap can surface
         once per join source that reads it *)
      let seen = Hashtbl.create 8 in
      missing
        (List.filter
           (fun r ->
             if Hashtbl.mem seen r then false
             else begin
               Hashtbl.add seen r ();
               true
             end)
           (List.rev !acc))
    | pulled ->
      let stored = bounded_stored () in
      (* merge, preferring materialized values on key collisions. The
         truncated stored list is safe under a limit: the n smallest stored
         keys are all present, so after the merged sort the first n
         elements are exactly the true bounded result. *)
      let merged =
        if pulled = [] then stored
        else begin
          let stored_keys = List.map fst stored in
          let extra = List.filter (fun (k, _) -> not (List.mem k stored_keys)) pulled in
          let all = List.sort (fun (a, _) (b, _) -> String.compare a b) (stored @ extra) in
          match limit with None -> all | Some n -> take n all
        end
      in
      (* evict only after the response is assembled: a cover computed for
         this very scan must not vanish under the read *)
      maybe_evict t;
      finish ~warm:false merged
    | exception Need_fetch (table, flo, fhi) -> missing [ (table, flo, fhi) ]
  end

(** Ordered scan of [\[lo, hi)], computing and freshening any overlapping
    cache-join output first. Thin wrapper over {!scan_result} for callers
    that know every needed range is present. *)
let scan ?limit t ~lo ~hi =
  match scan_result ?limit t ~lo ~hi with
  | `Ok pairs -> pairs
  | `Missing ((table, flo, fhi) :: _) ->
    failwith (Printf.sprintf "Pequod.scan: unresolved fetch %s [%s, %s)" table flo fhi)
  | `Missing [] -> assert false

let get t key =
  Obs.Counter.incr t.hot.gets;
  match scan t ~lo:key ~hi:(Strkey.key_after key) with
  | (k, v) :: _ when String.equal k key -> Some v
  | _ -> None

let get_result t key =
  match scan_result t ~lo:key ~hi:(Strkey.key_after key) with
  | `Ok ((k, v) :: _) when String.equal k key -> `Ok (Some v)
  | `Ok _ -> `Ok None
  | `Missing _ as m -> m

let present_map m =
  match m.present with
  | Some p -> p
  | None ->
    let p = Range_map.create () in
    m.present <- Some p;
    p

(** Feed base data fetched by the host (distributed mode): installs the
    pairs as the authoritative content of [\[lo, hi)] — any resident key
    the feed no longer contains is removed through the updaters, so a
    refetch after recovery or a lost subscription heals stale state and
    the joins computed from it — and marks the range present at exactly
    the home's version [stamp]. Fetched presence, pairs and stamp are
    cache, not client state: nothing reaches the durability hook
    (recovery refetches instead). *)
let feed_base t ~table ~lo ~hi ~stamp pairs =
  let m = meta t table in
  Range_map.set (present_map m) ~lo ~hi ();
  (* exactly, not raised: a stamp this engine issued itself while the
     table was ungoverned, or a push trailer the snapshot predates, is
     not the home's version of this copy *)
  if stamp > 0 then Range_map.set (stamps_map m) ~lo ~hi stamp
  else Option.iter (fun s -> Range_map.clear_range s ~lo ~hi) m.stamps;
  (* reconcile only pure base tables: a table some local join outputs
     into (a chained join's middle table) mixes fetched pairs with
     locally derived ones, which a backing copy must not delete *)
  let join_fed =
    List.exists
      (fun j ->
        Joinspec.maintenance j.spec <> Joinspec.Pull
        && String.equal (Pattern.table (Joinspec.output j.spec)) table)
      t.joins
  in
  if not join_fed then begin
    let incoming = Hashtbl.create (max 16 (List.length pairs)) in
    List.iter (fun (k, _) -> Hashtbl.replace incoming k ()) pairs;
    let stale =
      Store.fold_range t.store ~lo ~hi ~init:[] (fun acc k _ ->
          if Hashtbl.mem incoming k then acc else k :: acc)
    in
    List.iter (fun k -> apply_remove t k) stale
  end;
  List.iter (fun (k, v) -> ignore (apply_put t k v)) pairs

(** Mark a base range as locally owned (home-server partitions). Unlike
    fetched presence, ownership is durable: it reaches the mutation hook
    and {!present_ranges}. *)
let mark_present t ~table ~lo ~hi =
  let m = meta t table in
  Range_map.set (present_map m) ~lo ~hi ();
  let owned =
    match m.owned with
    | Some o -> o
    | None ->
      let o = Range_map.create () in
      m.owned <- Some o;
      o
  in
  Range_map.set owned ~lo ~hi ();
  emit t (M_present (table, lo, hi))

(** Forget any presence of [\[lo, hi)] (fetched or owned): the next scan
    needing the range consults the resolver again. The healing path for a
    compute server whose subscription the home dropped. *)
let unmark_present t ~table ~lo ~hi =
  match Hashtbl.find_opt t.meta table with
  | None -> ()
  | Some m ->
    Option.iter (fun p -> Range_map.clear_range p ~lo ~hi) m.present;
    Option.iter (fun o -> Range_map.clear_range o ~lo ~hi) m.owned

(** Remove, through {!remove}, up to [limit] resident keys of [\[lo, hi)]
    that neither lie in a fetched copy (present, not owned: a feed
    reconciled them) nor are named by [keep]: what a migration's source
    still holds of a range it gave away. [Some next] is where the next
    call resumes; [None]: the walk reached [hi]. *)
let drop_moved t ~lo ~hi ~limit ~keep =
  let covered map k = match map with Some m -> Range_map.find m k <> None | None -> false in
  let fetched =
    match Hashtbl.find_opt t.meta (Store.table_name_of lo) with
    | Some m -> fun k -> covered m.present k && not (covered m.owned k)
    | None -> fun _ -> false
  in
  let n, keys =
    Store.fold_range_stop t.store ~lo ~hi ~init:(0, []) (fun (n, acc) k _ ->
        let st = (n + 1, k :: acc) in
        if n + 1 >= limit then `Stop st else `Continue st)
  in
  List.iter (fun k -> if not (fetched k || keep k) then remove t k) keys;
  match keys with last :: _ when n >= limit -> Some (last ^ "\x00") | _ -> None

(** Number of key-value pairs resident (all tables). *)
let size t = Store.size t.store

(* ------------------------------------------------------------------ *)
(* Durability exports (lib/persist)                                    *)

(** Every resident pair, in table order. Includes materialized join
    output; snapshot writers skip {!sink_tables} to store base data
    only. *)
let iter_pairs t f =
  List.iter (fun tbl -> Table.iter tbl (fun k cell -> f k cell.data)) (Store.tables t.store)

(** Output tables of the installed push/snapshot joins — the tables whose
    contents are derived state, recomputable on demand after recovery. *)
let sink_tables t =
  List.sort_uniq String.compare
    (List.filter_map
       (fun j ->
         if Joinspec.maintenance j.spec = Joinspec.Pull then None
         else Some (Pattern.table (Joinspec.output j.spec)))
       t.joins)

(** Base ranges {e owned} by this server ({!mark_present} home-partition
    ownership). Restoring these on recovery is safe; fetched presence is
    deliberately excluded — a restored fetched range would have no live
    subscription behind it and would serve frozen data. *)
let present_ranges t =
  let acc = ref [] in
  Hashtbl.iter
    (fun name m ->
      match m.owned with
      | None -> ()
      | Some o -> Range_map.iter o (fun lo hi () -> acc := (name, lo, hi) :: !acc))
    t.meta;
  List.sort compare !acc

(** Installed joins as canonical re-parsable text, in install order. *)
let join_texts t = List.map (fun j -> Joinspec.to_string j.spec) t.joins

(* Mirror values maintained outside the registry (memory ledgers, store
   layer statistics) into it. Gauge.set / Counter.set are not gated on
   [Obs.enabled], so measurement-critical figures (memory.bytes drives the
   paper's Fig 8 experiment) survive with recording off. *)
let sync_registry t =
  let g name v = Obs.Gauge.set (Obs.gauge t.obs name) v in
  g "memory.bytes" (memory_bytes t);
  g "memory.value_bytes" t.value_bytes;
  g "memory.store_bytes" (Store.memory_bytes t.store);
  g "store.size" (size t);
  g "store.tables" (List.length (Store.tables t.store));
  g "lru.covers" (Lru.length t.lru);
  g "updater.entries" t.entries;
  g "updater.contexts" t.contexts;
  g "status.pieces" (Hashtbl.fold (fun _ m acc -> acc + Range_map.cardinal m.status) t.meta 0);
  let logged = ref 0 in
  Hashtbl.iter
    (fun _ m ->
      Range_map.iter m.status (fun _ _ st ->
          match st.state with
          | Pending { len; _ } -> logged := !logged + len
          | Valid _ | Invalid -> ()))
    t.meta;
  g "status.log_entries" !logged;
  let s = Store.stats_totals t.store in
  let c name v = Obs.Counter.set (Obs.counter t.obs name) v in
  c "table.lookups" s.Table.lookups;
  c "table.inserts" s.Table.inserts;
  c "table.removes" s.Table.removes;
  c "table.steps" s.Table.steps;
  let gc = Gc.quick_stat () in
  c "gc.minor_words" (int_of_float gc.Gc.minor_words);
  c "gc.major_words" (int_of_float gc.Gc.major_words)

(** Full registry snapshot (counters, gauges, histograms), with the
    mirrored gauges freshly synced. *)
let metrics_snapshot t =
  sync_registry t;
  Obs.snapshot t.obs

let stats_snapshot t =
  sync_registry t;
  Obs.int_snapshot t.obs

(* The cover/updater bookkeeping: every context sits in its entry's list
   and its live cover's, once; every entry has a context and is found by
   its own (join, source, kind, range), alone under combining; no cover
   holds two contexts with the same entry and equal bindings; and the
   running counts agree. Walking both sides, with the cover side free of
   duplicates, contained in the entry side and as long, proves the two
   sides hold the same contexts. *)
let check_updaters t =
  let fail fmt = Printf.ksprintf (fun s -> failwith ("Server.check_invariants: " ^ s)) fmt in
  let entries = ref 0 and contexts = ref 0 in
  Hashtbl.iter
    (fun table m ->
      Interval_map.iter m.updaters (fun e ->
          incr entries;
          let up = Interval_map.handle_data e in
          let slo, shi = Interval_map.handle_range e in
          if up.up_contexts = [] then fail "entry %s [%s, %s) has no context" table slo shi;
          let twins =
            entries_for m up.up_join ~source_idx:up.up_source ~kind:up.up_kind ~slo ~shi
          in
          if not (List.memq e twins) then fail "entry %s [%s, %s) not found by its key" table slo shi;
          (match twins with
          | _ :: _ :: _ when t.config.Config.combine_updaters ->
            fail "combinable entries over %s [%s, %s)" table slo shi
          | _ -> ());
          List.iter
            (fun cx ->
              incr contexts;
              if cx.cx_entry != e then fail "context on %s [%s, %s) names another entry" table slo shi)
            up.up_contexts))
    t.meta;
  let held = ref 0 in
  Hashtbl.iter
    (fun _ cm ->
      Range_map.iter cm (fun lo hi c ->
          if not (String.equal lo c.co_lo && String.equal hi c.co_hi) then
            fail "cover [%s, %s) filed under [%s, %s)" c.co_lo c.co_hi lo hi;
          let seen = Hashtbl.create 8 in
          List.iter
            (fun cx ->
              incr held;
              if cx.cx_cover != c then fail "cover [%s, %s) lists a foreign context" lo hi;
              if not (List.memq cx (Interval_map.handle_data cx.cx_entry).up_contexts) then
                fail "context of cover [%s, %s) is missing from its entry" lo hi;
              let prev = Option.value (Hashtbl.find_opt seen cx.cx_bindings) ~default:[] in
              if List.memq cx.cx_entry prev then
                fail "cover [%s, %s) holds a duplicate context" lo hi;
              Hashtbl.replace seen cx.cx_bindings (cx.cx_entry :: prev))
            c.co_contexts))
    t.covers;
  if !held <> !contexts then
    fail "covers hold %d contexts, updater entries %d" !held !contexts;
  if !entries <> t.entries || !contexts <> t.contexts then
    fail "running counts %d entries, %d contexts; walk found %d, %d" t.entries t.contexts
      !entries !contexts

(** Whole-engine invariant checks, cheap enough to run after every
    operation of a model-based test: every store-layer structure
    revalidates (red-black trees, range maps, interval trees), including
    the §3.3 present-range bookkeeping; the cover/updater bookkeeping is
    consistent (each context in its entry's and its cover's list, once);
    and every memory ledger must agree with a fresh walk of the resident
    pairs — the value-bytes ledger and each table's key-bytes/pair-count
    ledger (the figures {!memory_bytes}, and therefore [--stats],
    report). Raises [Failure] on the first violation. *)
let check_invariants t =
  Store.validate t.store;
  Hashtbl.iter
    (fun _ m ->
      Range_map.validate m.status;
      Interval_map.validate m.updaters;
      (match m.present with Some p -> Range_map.validate p | None -> ());
      (match m.stamps with Some s -> Range_map.validate s | None -> ());
      match m.owned with Some o -> Range_map.validate o | None -> ())
    t.meta;
  Hashtbl.iter (fun _ cm -> Range_map.validate cm) t.covers;
  check_updaters t;
  let resident = ref 0 in
  List.iter
    (fun tbl ->
      let key_bytes = ref 0 and pairs = ref 0 in
      Table.iter tbl (fun k c ->
          resident := !resident + c.charged;
          key_bytes := !key_bytes + String.length k;
          incr pairs);
      if !pairs <> Table.size tbl then
        failwith
          (Printf.sprintf "Server.check_invariants: table %s counts %d pairs, walk found %d"
             (Table.name tbl) (Table.size tbl) !pairs);
      let subtables =
        match Table.subtable_depth tbl with None -> 0 | Some _ -> Table.subtable_count tbl
      in
      let expected =
        !key_bytes + (!pairs * Table.node_overhead) + (subtables * Table.subtable_overhead)
      in
      if Table.memory_bytes tbl <> expected then
        failwith
          (Printf.sprintf
             "Server.check_invariants: table %s key ledger reports %d bytes, walk expects %d"
             (Table.name tbl) (Table.memory_bytes tbl) expected))
    (Store.tables t.store);
  if !resident <> t.value_bytes then
    failwith
      (Printf.sprintf "Server.check_invariants: value ledger %d bytes <> resident %d bytes"
         t.value_bytes !resident)

let validate = check_invariants
