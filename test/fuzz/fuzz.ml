(** Model-based fuzz harness: replay deterministic op sequences against
    the optimized engine ({!Pequod_core.Server}) and the naive oracle
    ({!Pequod_oracle.Oracle}), asserting equal results on every read and
    every structural invariant after every op. A case is a {e scenario}
    (joins and an op generator), a {e variant} (engine configuration and
    {!cluster} shape: real request cores wired through a {!Hub}) and ops
    derived from one root seed via {!derive_seed}, so every run, failure
    and shrink is reproducible byte-for-byte. [Crash] ops (persist
    variants) kill the engine through {!Persist.crash} and recover a
    fresh one. On divergence the driver shrinks the sequence and writes a
    replayable repro file ([fuzz_main.ml], `make fuzz`, `make fuzz-replay`). *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Persist = Pequod_persist.Persist
module Oracle = Pequod_oracle.Oracle
module Shard = Pequod_server_lib.Shard
module Node = Pequod_server_lib.Node
module Directory = Pequod_server_lib.Directory
module Remote = Pequod_server_lib.Remote
module Message = Pequod_proto.Message
module Joinspec = Pequod_pattern.Joinspec
module Hub = Pequod_hub.Hub

(* ------------------------------------------------------------------ *)
(* Seed derivation                                                     *)

(** Stream [i] of root seed [root], by splitmix64 finalization of
    [root + (i+1) * golden-gamma]. Every randomized component derives
    its stream this way (see also [test/test_util.ml]), so op sequence
    [i] of a fuzz run is regenerable from the root seed alone and
    neighbouring streams are statistically independent. *)
let derive_seed root i =
  let open Int64 in
  let z = add (of_int root) (mul 0x9E3779B97F4A7C15L (of_int (i + 1))) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (logand z 0x3FFFFFFFFFFFFFFFL)

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)

type op =
  | Put of string * string
  | Put_batch of (string * string) list (* Server.put_batch, argument order *)
  | Remove of string
  | Scan of string * string (* compare engine vs oracle over [lo, hi) *)
  | Count of string * string (* compare result cardinality only *)
  | Add_join of int (* install scenario.sc_extra.(i), once *)
  | Tick (* advance the logical clock by 1s *)
  | Crash (* persist variants: kill + recover the engine *)

let op_to_line op =
  let quoted = List.map (Printf.sprintf " %S") in
  String.concat ""
    (match op with
    | Put (k, v) -> "op put" :: quoted [ k; v ]
    | Put_batch pairs -> "op putbatch" :: quoted (List.concat_map (fun (k, v) -> [ k; v ]) pairs)
    | Remove k -> "op remove" :: quoted [ k ]
    | Scan (lo, hi) -> "op scan" :: quoted [ lo; hi ]
    | Count (lo, hi) -> "op count" :: quoted [ lo; hi ]
    | Add_join i -> [ Printf.sprintf "op addjoin %d" i ]
    | Tick -> [ "op tick" ]
    | Crash -> [ "op crash" ])

(* "op KIND" and its %S-quoted arguments (addjoin's is a bare integer) *)
let op_of_line line =
  let sc = Scanf.Scanning.from_string line in
  let rec args acc =
    if Scanf.Scanning.end_of_input sc then List.rev acc
    else args (Scanf.bscanf sc " %S " Fun.id :: acc)
  in
  let rec pairs = function k :: v :: rest -> (k, v) :: pairs rest | _ -> [] in
  match Scanf.bscanf sc " op %s " Fun.id with
  | "addjoin" -> Scanf.bscanf sc "%d " (fun i -> Some (Add_join i))
  | kind -> (
    match (kind, args []) with
    | "tick", [] -> Some Tick
    | "crash", [] -> Some Crash
    | "put", [ k; v ] -> Some (Put (k, v))
    | "putbatch", a when List.length a mod 2 = 0 -> Some (Put_batch (pairs a))
    | "remove", [ k ] -> Some (Remove k)
    | "scan", [ lo; hi ] -> Some (Scan (lo, hi))
    | "count", [ lo; hi ] -> Some (Count (lo, hi))
    | _ -> None)
  | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> None

(* ------------------------------------------------------------------ *)
(* Scenarios: joins + an op generator over a small key vocabulary      *)

type scenario = {
  sc_name : string;
  sc_joins : string list; (* installed before the first op *)
  sc_extra : string list; (* pool for Add_join ops *)
  sc_tick : float; (* clock advance before every compared read; snapshot
                      scenarios set it past the period so staleness never
                      enters the comparison (the oracle is always fresh) *)
  sc_gen : Rng.t -> op;
}

let users = [| "ann"; "bob"; "cal"; "dee" |]
let tm n = Strkey.encode_int ~width:4 n
let ordered a b = if a <= b then (a, b) else (b, a)
let prefix_range p = (p, Strkey.prefix_upper p)
let exact_range k = (k, Strkey.key_after k)

let timeline_join =
  "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

let karma_join = "karma|<author> = count vote|<author>|<id>|<voter>"

(* A scenario whose op mix draws n in [0, 100): the first of [writes]
   whose bound exceeds n, else a scan below [scans], a count below 92, a
   tick below 97, and a crash. *)
let scenario ?(extra = []) ?(tick = 1.0) name joins ~scans ~read writes =
  let gen rng =
    let n = Rng.int rng 100 in
    match List.find_opt (fun (bound, _) -> n < bound) writes with
    | Some (_, op) -> op rng
    | None when n < scans -> let lo, hi = read rng in Scan (lo, hi)
    | None when n < 92 -> let lo, hi = read rng in Count (lo, hi)
    | None -> if n < 97 then Tick else Crash
  in
  { sc_name = name; sc_joins = joins; sc_extra = extra; sc_tick = tick; sc_gen = gen }

let twip_scenario =
  let sub rng = Printf.sprintf "s|%s|%s" (Rng.pick rng users) (Rng.pick rng users) in
  let post rng = Printf.sprintf "p|%s|%s" (Rng.pick rng users) (tm (Rng.int rng 25)) in
  let read rng =
    match Rng.int rng 4 with
    | 0 -> ("", "\xfe")
    | 1 -> prefix_range (Printf.sprintf "t|%s|" (Rng.pick rng users))
    | 2 ->
      let u = Rng.pick rng users in
      let a, b = ordered (Rng.int rng 25) (Rng.int rng 25) in
      (Printf.sprintf "t|%s|%s" u (tm a), Printf.sprintf "t|%s|%s" u (tm (b + 1)))
    | _ -> ("t|", "t}")
  in
  scenario "twip" [ timeline_join ] ~scans:84 ~read
    [ (22, fun rng -> Put (sub rng, "1"));
      (32, fun rng -> Remove (sub rng));
      (52, fun rng -> Put (post rng, Printf.sprintf "m%d" (Rng.int rng 100)));
      (60, fun rng -> Remove (post rng)) ]

let karma_scenario =
  let authors = [| "ann"; "bob" |] and ids = [| "01"; "02"; "03" |] in
  let voters = [| "x"; "y"; "z" |] in
  let vote rng =
    Printf.sprintf "vote|%s|%s|%s" (Rng.pick rng authors) (Rng.pick rng ids)
      (Rng.pick rng voters)
  in
  let read rng =
    match Rng.int rng 3 with
    | 0 -> prefix_range "karma|"
    | 1 -> exact_range ("karma|" ^ Rng.pick rng authors)
    | _ -> ("", "\xfe")
  in
  scenario "karma" [ karma_join ] ~scans:80 ~read
    [ (38, fun rng -> Put (vote rng, "1")); (60, fun rng -> Remove (vote rng)) ]

let agg_scenario =
  (* min, max and sum over one numeric source; values are fixed-width so
     lexicographic min/max equals numeric min/max *)
  let ids = [| "a"; "b"; "c"; "d" |] in
  let score rng =
    Printf.sprintf "score|%s|%s" (Rng.pick rng users) (Rng.pick rng ids)
  in
  let read rng =
    match Rng.int rng 4 with
    | 0 -> prefix_range "low|"
    | 1 -> prefix_range "high|"
    | 2 -> exact_range ("total|" ^ Rng.pick rng users)
    | _ -> ("", "\xfe")
  in
  scenario "agg"
    [ "low|<user> = min score|<user>|<id>";
      "high|<user> = max score|<user>|<id>";
      "total|<user> = sum score|<user>|<id>" ]
    ~scans:80 ~read
    [ (36, fun rng -> Put (score rng, Strkey.encode_int ~width:2 (Rng.int rng 100)));
      (58, fun rng -> Remove (score rng)) ]

let chain_scenario =
  let xs = [| "a"; "b"; "c" |] and ys = [| "1"; "2"; "3" |] in
  let base rng = Printf.sprintf "base|%s|%s" (Rng.pick rng xs) (Rng.pick rng ys) in
  let read rng =
    match Rng.int rng 4 with
    | 0 -> prefix_range "topp|"
    | 1 -> prefix_range "mid|"
    | 2 -> exact_range (Printf.sprintf "topp|%s|%s" (Rng.pick rng ys) (Rng.pick rng xs))
    | _ -> ("", "\xfe")
  in
  scenario "chain" [ "mid|<x>|<y> = copy base|<x>|<y>"; "topp|<y>|<x> = copy mid|<x>|<y>" ]
    ~scans:78 ~read
    [ (34, fun rng -> Put (base rng, Printf.sprintf "v%d" (Rng.int rng 50)));
      (52, fun rng -> Remove (base rng)) ]

let newp_scenario =
  let authors = [| "ann"; "bob" |] and aids = [| "101"; "102" |] in
  let cids = [| "c1"; "c2" |] and people = [| "ann"; "bob"; "liz" |] in
  let article rng = Printf.sprintf "article|%s|%s" (Rng.pick rng authors) (Rng.pick rng aids) in
  let comment rng =
    Printf.sprintf "comment|%s|%s|%s|%s" (Rng.pick rng authors) (Rng.pick rng aids)
      (Rng.pick rng cids) (Rng.pick rng people)
  in
  let vote rng =
    Printf.sprintf "vote|%s|%s|%s" (Rng.pick rng authors) (Rng.pick rng aids)
      (Rng.pick rng people)
  in
  let read rng =
    match Rng.int rng 4 with
    | 0 ->
      prefix_range (Printf.sprintf "page|%s|%s|" (Rng.pick rng authors) (Rng.pick rng aids))
    | 1 -> prefix_range "karma|"
    | 2 -> prefix_range "page|"
    | _ -> ("", "\xfe")
  in
  scenario "newp"
    [ karma_join;
      "rank|<author>|<id> = count vote|<author>|<id>|<voter>";
      "page|<author>|<id>|a = copy article|<author>|<id>";
      "page|<author>|<id>|r = copy rank|<author>|<id>";
      "page|<author>|<id>|c|<cid>|<commenter> = copy comment|<author>|<id>|<cid>|<commenter>";
      "page|<author>|<id>|k|<cid>|<commenter> = check \
       comment|<author>|<id>|<cid>|<commenter> copy karma|<commenter>" ]
    ~scans:82 ~read
    [ (12, fun rng -> Put (article rng, Printf.sprintf "art%d" (Rng.int rng 10)));
      (26, fun rng -> Put (comment rng, Printf.sprintf "c%d" (Rng.int rng 10)));
      (32, fun rng -> Remove (comment rng));
      (48, fun rng -> Put (vote rng, "1"));
      (58, fun rng -> Remove (vote rng)) ]

let pull_scenario =
  (* the celebrity split (§2.3): a push helper range in time order and a
     per-user pull filter over it *)
  let sub rng = Printf.sprintf "s|%s|%s" (Rng.pick rng users) (Rng.pick rng users) in
  let cpost rng = Printf.sprintf "cp|%s|%s" (Rng.pick rng users) (tm (Rng.int rng 25)) in
  let read rng =
    match Rng.int rng 4 with
    | 0 -> prefix_range (Printf.sprintf "t|%s|" (Rng.pick rng users))
    | 1 -> prefix_range "ct|"
    | 2 -> ("t|", "t}")
    | _ -> ("", "\xfe")
  in
  scenario "pull"
    [ "ct|<time>|<poster> = copy cp|<poster>|<time>";
      "t|<user>|<time>|<poster> = pull copy ct|<time>|<poster> check s|<user>|<poster>" ]
    ~scans:82 ~read
    [ (22, fun rng -> Put (sub rng, "1"));
      (32, fun rng -> Remove (sub rng));
      (50, fun rng -> Put (cpost rng, Printf.sprintf "c%d" (Rng.int rng 50)));
      (58, fun rng -> Remove (cpost rng)) ]

let snapshot_scenario =
  let xs = [| "a"; "b"; "c"; "d" |] in
  let live rng = "live|" ^ Rng.pick rng xs in
  let read rng =
    match Rng.int rng 3 with
    | 0 -> prefix_range "snap|"
    | 1 -> exact_range ("snap|" ^ Rng.pick rng xs)
    | _ -> ("", "\xfe")
  in
  (* past the 30s period: every compared read sees an expired snapshot
     and must recompute, which is the semantics the oracle models *)
  scenario "snapshot" [ "snap|<x> = snapshot 30 copy live|<x>" ] ~tick:31.0 ~scans:80 ~read
    [ (36, fun rng -> Put (live rng, Printf.sprintf "m%d" (Rng.int rng 50)));
      (54, fun rng -> Remove (live rng)) ]

let mixed_scenario =
  (* timelines up front, aggregates installed mid-sequence over both a
     dedicated source table and the timeline's own check table *)
  let sub rng = Printf.sprintf "s|%s|%s" (Rng.pick rng users) (Rng.pick rng users) in
  let post rng = Printf.sprintf "p|%s|%s" (Rng.pick rng users) (tm (Rng.int rng 25)) in
  let vote rng =
    Printf.sprintf "vote|%s|%s|%s" (Rng.pick rng users) (Rng.pick rng [| "01"; "02" |])
      (Rng.pick rng users)
  in
  let read rng =
    match Rng.int rng 4 with
    | 0 -> prefix_range (Printf.sprintf "t|%s|" (Rng.pick rng users))
    | 1 -> prefix_range "karma|"
    | 2 -> prefix_range "fcount|"
    | _ -> ("", "\xfe")
  in
  scenario "mixed" [ timeline_join ]
    ~extra:[ karma_join; "fcount|<user> = count s|<user>|<poster>" ]
    ~scans:84 ~read
    [ (18, fun rng -> Put (sub rng, "1"));
      (26, fun rng -> Remove (sub rng));
      (40, fun rng -> Put (post rng, Printf.sprintf "m%d" (Rng.int rng 100)));
      (46, fun rng -> Remove (post rng));
      (56, fun rng -> Put (vote rng, "1"));
      (62, fun rng -> Remove (vote rng));
      (68, fun rng -> Add_join (Rng.int rng 2)) ]

let scenarios =
  [| twip_scenario; karma_scenario; agg_scenario; chain_scenario; newp_scenario;
     pull_scenario; snapshot_scenario; mixed_scenario |]

(* ------------------------------------------------------------------ *)
(* Config variants                                                     *)

type persist_kind = No_persist | Persist_always of { snapshot_every : int }

(** How a variant wires its engines: [n] request cores
    ({!Pequod_server_lib.Node}) addressed ["0"] .. ["n-1"], routed by
    [Remote.attach] and wired through a {!Hub}. Client ops enter as
    requests; everything else is the shipped code's own traffic. *)
type cluster =
  | Single  (** one core, no directory *)
  | Remote
      (** core 0 homes every base table, core 1 is the compute (§3.3);
          the hub loses pushes, and the compute's heartbeat heals *)
  | Session
      (** remote wiring whose reads demand the session's acked stamps,
          sent without letting the hub settle *)
  | Migrate
      (** cores 0 and 1 are homes, core 2 the compute, following core 0;
          a periodic [Migrate] moves a live sub-range between the homes *)
  | Shards of int  (** k shards, each homing a slice ([Shard.directory]) *)
  | Spread
      (** cores 0 and 1 are homes, each base table cut in two between
          them; cores 2 and 3 are computes, and client ops alternate
          between them, so both hold replicas assembled across homes *)

type variant = {
  va_name : string;
  va_tweak : Config.t -> unit;
  va_persist : persist_kind;
  va_cluster : cluster;
  va_cut : bool;
      (** each base table is cut into three directory pieces, so one
          missing range plans into several clamps that the fetcher
          issues as one burst and that land one at a time *)
}

let variant ?(tweak = ignore) ?(persist = No_persist) ?(cluster = Single) ?(cut = false) name =
  { va_name = name; va_tweak = tweak; va_persist = persist; va_cluster = cluster; va_cut = cut }

let evict c = c.Config.memory_limit <- Some 8192

let variants =
  [| variant "default";
     variant "no-hints" ~tweak:(fun c -> c.Config.output_hints <- false);
     variant "no-sharing" ~tweak:(fun c -> c.Config.value_sharing <- false);
     variant "no-combine" ~tweak:(fun c -> c.Config.combine_updaters <- false);
     variant "eager-checks" ~tweak:(fun c -> c.Config.lazy_checks <- false);
     variant "log-limit-1" ~tweak:(fun c -> c.Config.pending_log_limit <- 1);
     variant "subtables" ~tweak:(fun c -> c.Config.table_config <- (fun _ -> Some 2));
     variant "evict" ~tweak:evict;
     variant "evict-no-combine" ~tweak:(fun c ->
         evict c;
         c.Config.combine_updaters <- false);
     variant "persist" ~persist:(Persist_always { snapshot_every = 0 });
     variant "persist-snap" ~persist:(Persist_always { snapshot_every = 7 });
     variant "remote" ~cluster:Remote;
     variant "remote-evict" ~tweak:evict ~cluster:Remote;
     variant "remote-async" ~cluster:Remote ~cut:true;
     variant "remote-async-evict" ~tweak:evict ~cluster:Remote ~cut:true;
     variant "session" ~cluster:Session;
     variant "session-evict" ~tweak:evict ~cluster:Session;
     variant "migrate" ~cluster:Migrate;
     variant "migrate-evict" ~tweak:evict ~cluster:Migrate;
     variant "shards-2" ~cluster:(Shards 2);
     variant "shards-3" ~cluster:(Shards 3);
     variant "shards-2-evict" ~tweak:evict ~cluster:(Shards 2);
     variant "spread" ~cluster:Spread;
     variant "spread-evict" ~tweak:evict ~cluster:Spread |]

let find_scenario name = Array.find_opt (fun s -> s.sc_name = name) scenarios
let find_variant name = Array.find_opt (fun v -> v.va_name = name) variants

(* ------------------------------------------------------------------ *)
(* Case execution                                                      *)

type failure = { f_step : int; f_reason : string }

exception Case_failed of failure

(* cumulative across the process; reported by the sweep summary *)
let stat_ops = ref 0
let stat_compares = ref 0

(* the cluster mechanisms the sweep summary counts, from the cores' own
   registries, summed over every core of every case *)
let mechanisms =
  [ "peer.fetch.in"; "peer.sub.lost"; "session.stale_waits"; "session.refetches";
    "migrate.keys_moved"; "shard.forward.out"; "fetch.replayed"; "peer.notify.in" ]

(* hub steps a client op, a migration or a settle may take; past it the
   case fails: every request must be answered (deadlock freedom) *)
let step_budget = 5_000

(* a persist data directory holds only files *)
let rm_rf dir =
  try
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  with Sys_error _ -> ()

let fresh_dir ~prefix () = Filename.temp_dir prefix ""

let show_pairs pairs =
  let shown = List.filteri (fun i _ -> i < 6) pairs in
  let body = String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%S=%S" k v) shown) in
  Printf.sprintf "[%s%s] (%d)" body (if List.length pairs > 6 then "; ..." else "")
    (List.length pairs)

let rec first_diff i got want =
  match (got, want) with
  | (k, v) :: _, [] -> Printf.sprintf "index %d: engine has extra %S=%S" i k v
  | [], (k, v) :: _ -> Printf.sprintf "index %d: engine misses %S=%S" i k v
  | (gk, gv) :: g, (wk, wv) :: w when gk = wk && gv = wv -> first_diff (i + 1) g w
  | (gk, gv) :: _, (wk, wv) :: _ ->
    Printf.sprintf "index %d: engine %S=%S, oracle %S=%S" i gk gv wk wv
  | [], [] -> "(equal?)"

(* the tables a scenario writes: every join source no join outputs *)
let base_tables scenario =
  let specs =
    List.filter_map
      (fun text -> Result.to_option (Joinspec.parse text))
      (scenario.sc_joins @ scenario.sc_extra)
  in
  let outputs = List.map Joinspec.output_table specs in
  List.filter
    (fun t -> not (List.mem t outputs))
    (List.sort_uniq String.compare (List.concat_map Joinspec.source_tables specs))

(** Run one (scenario, variant, ops) case from scratch. [Ok ()] when
    every compared read agreed, every invariant held, every request was
    answered, and the final whole-keyspace scan matched; [Error f]
    pinpoints the first bad step. [inspect] sees every engine, by
    address, once the ops ran. Always cleans up its persist directory. *)
let run_case ~inspect scenario variant ops =
  let clock = ref 1_000_000.0 in
  let config = Config.default () in
  variant.va_tweak config;
  config.Config.now <- (fun () -> !clock);
  let step = ref (-1) in
  let fail fmt =
    Printf.ksprintf (fun reason -> raise (Case_failed { f_step = !step; f_reason = reason })) fmt
  in
  let cluster = variant.va_cluster in
  let n =
    match cluster with
    | Single -> 1 | Remote | Session -> 2 | Migrate -> 3 | Spread -> 4 | Shards k -> k
  in
  let engs = Array.init n (fun _ -> Server.create ~config ()) in
  let hub = Hub.create ~clock engs in
  let oracle = Oracle.create () in
  let addr = string_of_int in
  let tables = base_tables scenario in
  (* engine 0's durability, recovered from its directory by every attach *)
  let data_dir =
    match variant.va_persist with
    | No_persist -> None
    | Persist_always { snapshot_every } ->
      Some (fresh_dir ~prefix:"pequod-fuzz" (), snapshot_every)
  in
  let persist = ref None in
  let attach () =
    Option.iter
      (fun (d, snapshot_every) ->
        let p = Config.default_persist ~dir:d in
        p.Config.p_sync <- Config.Sync_always;
        p.Config.p_snapshot_every <- snapshot_every;
        p.Config.p_wal_max_bytes <- 1 lsl 20;
        persist := Some (Persist.attach engs.(0) p))
      data_dir
  in
  (* the schedule, and which pushes are lost, follow from the case and
     the op index alone, so a shrunk repro replays *)
  let reseed i =
    hub.Hub.rng <- Rng.create (Hashtbl.hash ("hub", scenario.sc_name, variant.va_name, i))
  in
  if cluster = Remote then
    hub.Hub.lose <- (function Message.Notify_batch _ -> Rng.int hub.Hub.rng 4 = 0 | _ -> false);
  (* every core's directory copy, and the seed it follows if any *)
  let dirs =
    let fixed entries =
      let d = Directory.create () in
      match Directory.install d ~epoch:1 ~entries with
      | Ok () -> (d, None)
      | Error msg -> fail "directory rejected: %s" msg
    in
    match cluster with
    | Single -> [||]
    | Shards k ->
      (* component-space cuts sized to the generators' vocabulary: users
         ann..dee, digit-led timestamps, voters x/y/z *)
      let cuts = if k = 2 then [ "c" ] else [ "b"; "d" ] in
      Array.init k (fun _ -> (Shard.directory ~cuts ~homes:(List.init k addr), None))
    | Remote | Session | Migrate | Spread -> (
      (* [--partition] specs homing every base table at core 0, whole or
         cut into three pieces, or under Spread cut in two between cores
         0 and 1; under Migrate the others follow core 0 *)
      let specs =
        if cluster = Spread then Hub.cut_specs ~tables ~cuts:[ "c" ] ~homes:[ "0"; "1" ]
        else if variant.va_cut then
          Hub.cut_specs ~tables ~cuts:[ "b"; "d" ] ~homes:[ "0"; "0"; "0" ]
        else tables
      in
      match Remote.entries_of_specs ~self_addr:"0" specs with
      | Error msg -> fail "partition specs rejected: %s" msg
      | Ok entries ->
        Array.init n (fun i ->
            if cluster = Migrate && i > 0 then (Directory.create (), Some "0") else fixed entries))
  in
  Array.iteri
    (fun i (dir, seed) ->
      let node = hub.Hub.nodes.(i) in
      Remote.attach ~node ~self_addr:(addr i) ~check_every:1.0 ?seed dir;
      match cluster with
      | Shards k -> Node.set_shard node ~self:i ~addrs:(List.init k addr) ~merge:Shard.merge_stats
      | _ -> ())
    dirs;
  (* client ops enter at the last core (the compute); on shards, at a
     rotating shard, as the acceptor deals connections; under Spread, at
     the two computes in turn *)
  let injected = match cluster with Shards _ -> true | _ -> false in
  let rr = ref 0 in
  let entry () =
    match cluster with
    | Shards _ -> incr rr; !rr mod n
    | Spread -> incr rr; 2 + (!rr mod 2)
    | _ -> n - 1
  in
  let run_until what cond =
    if not (Hub.run hub ~budget:step_budget cond) then
      fail "%s: no answer after %d steps (%s)" what step_budget (Hub.queues hub)
  in
  let send i ~injected req = Hub.request hub ~injected i req in
  let await what answer =
    run_until what (fun () -> !answer <> None);
    match Option.get !answer with
    | (Message.Stamps _ | Message.Done | Message.Pairs _) as resp -> resp
    | Message.Error m -> fail "%s: Error %s" what m
    | Message.Stale st -> fail "%s: Stale (%d ranges)" what (List.length st)
    | _ -> fail "%s: an unexpected answer" what
  in
  let call what req = await what (send (entry ()) ~injected req) in
  (* let everything in flight land: pushes, polls, heartbeats; the first
     step runs the pumps, whose ticks poll and heal *)
  let settle () =
    Hub.step hub;
    run_until "settling" (fun () -> Hub.idle hub)
  in
  (* writes into a join's output table are out of the oracle's scope: a
     generator producing one is a scenario bug, not a divergence *)
  let guard_sink k =
    let table = Pequod_store.Store.table_name_of k in
    if List.exists (fun j -> Joinspec.output_table j = table) (Oracle.joins oracle) then
      fail "scenario bug: base write %S targets sink table %S" k table
  in
  (* a write of [items] in order, as [req]; under Session its ack folds
     into the vector every read demands. The oracle applies the items one
     at a time, which a batch is specified to equal (its stable sort
     keeps duplicate keys in argument order, so last-write-wins agrees) *)
  let session = Hashtbl.create 32 in
  let write items req =
    List.iter (fun (k, _) -> guard_sink k) items;
    (match call "write" req with
    | Message.Stamps s when cluster = Session ->
      List.iter
        (fun (t, lo, hi, s) ->
          if s > Option.value ~default:0 (Hashtbl.find_opt session (t, lo, hi)) then
            Hashtbl.replace session (t, lo, hi) s)
        s
    | _ -> ());
    List.iter
      (function k, Some v -> Oracle.put oracle k v | k, None -> Oracle.remove oracle k)
      items
  in
  (* migrate mode: move one table's live sub-range to the other home with
     a real [Migrate] to its source home, answered in the background *)
  let migrations = ref 0 and migrating = ref None in
  let await_migration () =
    Option.iter (fun answer -> migrating := None; ignore (await "migrate" answer)) !migrating
  in
  let migrate_event () =
    await_migration ();
    let live t = Oracle.scan oracle ~lo:(t ^ "|") ~hi:(t ^ "}") in
    let nt = List.length tables in
    let turn = List.init nt (fun i -> List.nth tables ((!migrations + i) mod nt)) in
    match List.find_opt (fun t -> List.length (live t) >= 2) turn with
    | None -> ()
    | Some table -> (
      incr migrations;
      let live = live table in
      let k = List.length live in
      (* alternate between handing off the tail and a middle slice, cut
         to the directory entry holding its low end *)
      let lo, hi =
        if !migrations mod 2 = 1 then (fst (List.nth live (k / 2)), table ^ "}")
        else (fst (List.nth live (k / 4)), fst (List.nth live (3 * k / 4)))
      in
      match
        List.find_opt
          (fun (e : Message.dir_entry) -> Strkey.in_range ~lo:e.de_lo ~hi:e.de_hi lo)
          (Directory.for_table (Node.entries hub.Hub.nodes.(0)) ~table)
      with
      | None -> fail "the directory does not cover %S" lo
      | Some e ->
        let hi = if String.compare e.de_hi hi < 0 then e.de_hi else hi in
        let src = int_of_string e.de_home in
        if String.compare lo hi < 0 then
          let req = Message.Migrate { table; lo; hi; dest = addr (1 - src) } in
          migrating := Some (send src ~injected:false req))
  in
  (* a compared read, after any migration in flight answers and the
     clock passes the poll period (a follower lagging a flip refuses
     reads of the moved range, ROADMAP item 7): plain ones once the hub
     settles, a session's as a [Scan_at] demanding its vector at once *)
  let read lo hi =
    incr stat_compares;
    await_migration ();
    clock := !clock +. scenario.sc_tick;
    if cluster <> Session then settle ();
    let min = Hashtbl.fold (fun (t, slo, shi) s acc -> (t, slo, shi, s) :: acc) session [] in
    let what = Printf.sprintf "scan [%S, %S)" lo hi in
    match call what (if min = [] then Scan { lo; hi } else Scan_at { lo; hi; min }) with
    | Message.Pairs pairs -> pairs
    | _ -> fail "%s: an unexpected answer" what
  in
  let compare_scan lo hi =
    let got = read lo hi and want = Oracle.scan oracle ~lo ~hi in
    if got <> want then
      fail "scan [%S, %S) diverges — %s\n    engine %s\n    oracle %s" lo hi
        (first_diff 0 got want) (show_pairs got) (show_pairs want)
  in
  let joined what text = function
    | Ok () -> ()
    | Error msg -> fail "%s rejected join %S: %s" what text msg
  in
  let extra = Array.of_list scenario.sc_extra in
  let installed = Array.map (fun _ -> false) extra in
  let apply op =
    incr stat_ops;
    match op with
    | Put (k, v) -> write [ (k, Some v) ] (Message.Put (k, v))
    | Put_batch pairs ->
      write (List.map (fun (k, v) -> (k, Some v)) pairs) (Message.Put_batch pairs)
    | Remove k -> write [ (k, None) ] (Message.Remove k)
    | Scan (lo, hi) -> compare_scan lo hi
    | Count (lo, hi) ->
      let got = List.length (read lo hi) and want = Oracle.count oracle ~lo ~hi in
      if got <> want then fail "count [%S, %S): engine %d, oracle %d" lo hi got want
    | Tick -> clock := !clock +. 1.0
    | Add_join i ->
      if i < Array.length extra && not installed.(i) then begin
        installed.(i) <- true;
        joined "oracle" extra.(i) (Oracle.add_join_text oracle extra.(i));
        (* every compute serves reads of the new output *)
        let req = Message.Add_join extra.(i) in
        if cluster = Spread then
          List.iter (fun c -> ignore (await "add_join" (send c ~injected req))) [ 2; 3 ]
        else ignore (call "add_join" req)
      end
    | Crash ->
      Option.iter
        (fun p ->
          Persist.crash p;
          engs.(0) <- Server.create ~config ();
          hub.Hub.nodes.(0) <- Node.create ~out:(Hub.outbound hub 0) engs.(0);
          attach ())
        !persist
  in
  let guarded what f =
    try f () with
    | Case_failed _ as e -> raise e
    | e -> fail "%s: %s" what (Printexc.to_string e)
  in
  let body () =
    attach ();
    List.iter
      (fun text ->
        Array.iter (fun eng -> joined "engine" text (Server.add_join_text eng text)) engs;
        joined "oracle" text (Oracle.add_join_text oracle text))
      scenario.sc_joins;
    reseed (-1);
    settle ();
    List.iteri
      (fun i op ->
        step := i;
        reseed i;
        guarded ("op " ^ op_to_line op) (fun () -> apply op);
        if cluster = Migrate && i mod 13 = 7 then guarded "migration event" migrate_event;
        guarded ("invariants after " ^ op_to_line op) (fun () ->
            Array.iter Server.check_invariants engs))
      ops;
    step := List.length ops;
    reseed !step;
    compare_scan "" "\xfe";
    inspect engs
  in
  let result =
    match body () with
    | () -> Ok ()
    | exception Case_failed f -> Error f
    | exception e ->
      Error { f_step = !step; f_reason = "harness exception: " ^ Printexc.to_string e }
  in
  Option.iter (fun p -> try Persist.close p with _ -> ()) !persist;
  Option.iter (fun (d, _) -> rm_rf d) data_dir;
  result

(* ------------------------------------------------------------------ *)
(* Generation and shrinking                                            *)

let gen_ops scenario rng ~max_ops =
  let base = min 8 max_ops in
  let n = base + if max_ops > base then Rng.int rng (max_ops - base + 1) else 0 in
  (* one in eight generated Puts becomes a Put_batch of 2-8 Puts drawn
     from the same generator, so batches inherit the scenario's key
     shapes (and span source tables wherever the scenario has several);
     a quarter of batches repeat one key — with a value taken from
     another pair, keeping values scenario-shaped — to exercise the
     batch's last-write-wins rule *)
  let gen_batch first =
    let target = 2 + Rng.int rng 7 in
    let rec more pairs count tries =
      if count >= target || tries >= 64 then List.rev pairs
      else
        match scenario.sc_gen rng with
        | Put (k, v) -> more ((k, v) :: pairs) (count + 1) (tries + 1)
        | _ -> more pairs count (tries + 1)
    in
    let pairs = more [ first ] 1 0 in
    if List.length pairs >= 2 && Rng.int rng 4 = 0 then begin
      let arr = Array.of_list pairs in
      let k, _ = arr.(Rng.int rng (Array.length arr)) in
      let _, v = arr.(Rng.int rng (Array.length arr)) in
      Put_batch (pairs @ [ (k, v) ])
    end
    else Put_batch pairs
  in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match scenario.sc_gen rng with
      | Put (kk, v) when Rng.int rng 8 = 0 -> go (gen_batch (kk, v) :: acc) (k - 1)
      | op -> go (op :: acc) (k - 1)
  in
  go [] n

(** Greedy ddmin-style shrink: repeatedly delete the largest op chunks
    that keep [still_fails] true, halving the chunk size down to single
    ops, until a whole pass removes nothing. Deterministic, and every
    probe replays from scratch, so the result is a genuine minimal-ish
    failing sequence, not an artifact of stale state. *)
let shrink ~still_fails ops =
  let without lo len l = List.filteri (fun i _ -> i < lo || i >= lo + len) l in
  (* one pass at chunk size [len] from index [lo]; [true] if it removed *)
  let rec pass ops lo len removed =
    if lo >= List.length ops then (ops, removed)
    else
      let cand = without lo len ops in
      if still_fails cand then pass cand lo len true else pass ops (lo + len) len removed
  in
  let rec sizes ops len removed =
    let ops, r = pass ops 0 len false in
    if len > 1 then sizes ops (len / 2) (removed || r) else (ops, removed || r)
  in
  let rec go ops =
    match sizes ops (max 1 (List.length ops / 2)) false with
    | ops, true -> go ops
    | ops, false -> ops
  in
  go ops

(* ------------------------------------------------------------------ *)
(* Repro files                                                         *)

let write_repro ~path ~seed ~iter scenario variant ops =
  let oc = open_out path in
  Printf.fprintf oc "# pequod fuzz repro: seed=%d iter=%d\n" seed iter;
  Printf.fprintf oc "scenario %S\n" scenario.sc_name;
  Printf.fprintf oc "variant %S\n" variant.va_name;
  List.iter (fun op -> output_string oc (op_to_line op ^ "\n")) ops;
  close_out oc

let load_repro path =
  let ic = open_in path in
  let lines = List.map String.trim (String.split_on_char '\n' (In_channel.input_all ic)) in
  close_in ic;
  let body = List.filter (fun l -> l <> "" && l.[0] <> '#') lines in
  let named prefix find l =
    try Scanf.sscanf l (prefix ^^ " %S%!") (fun n -> Some (find n)) with _ -> None
  in
  let header prefix find = List.find_map (named prefix find) body in
  let is_op l = named "scenario" Fun.id l = None && named "variant" Fun.id l = None in
  let ops = List.filter is_op body in
  match (header "scenario" find_scenario, header "variant" find_variant) with
  | _ when List.exists (fun l -> op_of_line l = None) ops ->
    Error (Printf.sprintf "unparsable line %S" (List.find (fun l -> op_of_line l = None) ops))
  | (None | Some None), _ -> Error "missing or unknown scenario"
  | _, (None | Some None) -> Error "missing or unknown variant"
  | Some (Some s), Some (Some v) -> Ok (s, v, List.filter_map op_of_line ops)

let replay_file ~verbose path =
  match load_repro path with
  | Error msg -> Error { f_step = -1; f_reason = "bad repro file: " ^ msg }
  | Ok (scenario, variant, ops) ->
    Printf.printf "replaying %d ops: scenario %s, variant %s\n%!" (List.length ops)
      scenario.sc_name variant.va_name;
    if verbose then List.iter (fun op -> print_endline ("  " ^ op_to_line op)) ops;
    run_case ~inspect:ignore scenario variant ops

(* ------------------------------------------------------------------ *)
(* The sweep driver                                                    *)

(** Run [iters] cases from [seed]: case [i] pairs scenario [i mod |S|]
    with variant [(i / |S|) mod |V|] and ops from stream
    {!derive_seed}[ seed i]. Stops at the first divergence, shrinks it,
    writes a repro under [repro_dir]; returns the failure count. *)
let run_sweep ?(verbose = false) ?scenario_filter ?variant_filter ?(repro_dir = ".")
    ~seed ~iters ~max_ops () =
  let fired = Array.make (List.length mechanisms) 0 in
  let inspect engs =
    List.iteri
      (fun i name -> Array.iter (fun e -> fired.(i) <- fired.(i) + Server.counter e name) engs)
      mechanisms
  in
  let wanted filter name = Option.fold ~none:true ~some:(String.equal name) filter in
  let failed scenario variant idx ops (f : failure) =
    Printf.printf "FAIL iter %d (scenario %s, variant %s, seed %d) at step %d:\n  %s\n%!" idx
      scenario.sc_name variant.va_name seed f.f_step f.f_reason;
    Printf.printf "shrinking %d ops...\n%!" (List.length ops);
    let run = run_case ~inspect:ignore scenario variant in
    let small = shrink ~still_fails:(fun ops -> Result.is_error (run ops)) ops in
    let path = Filename.concat repro_dir (Printf.sprintf "fuzz-repro-%d.txt" idx) in
    write_repro ~path ~seed ~iter:idx scenario variant small;
    Result.iter_error
      (fun f' ->
        Printf.printf "shrunk to %d ops, failing at step %d:\n  %s\n" (List.length small)
          f'.f_step f'.f_reason;
        List.iter (fun op -> print_endline ("    " ^ op_to_line op)) small)
      (run small);
    Printf.printf "repro written to %s; replay with:\n  make fuzz-replay REPRO=%s\n%!" path path
  in
  (* [ran] cases so far; the first failure ends the sweep *)
  let rec sweep idx ran =
    if idx >= iters then Some ran
    else begin
      let scenario = scenarios.(idx mod Array.length scenarios) in
      let variant = variants.(idx / Array.length scenarios mod Array.length variants) in
      let outcome =
        if not (wanted scenario_filter scenario.sc_name && wanted variant_filter variant.va_name)
        then Ok ran
        else begin
          let ops = gen_ops scenario (Rng.create (derive_seed seed idx)) ~max_ops in
          if verbose then
            Printf.printf "iter %d: %s x %s (%d ops)\n%!" idx scenario.sc_name variant.va_name
              (List.length ops);
          run_case ~inspect scenario variant ops
          |> Result.map_error (failed scenario variant idx ops)
          |> Result.map (fun () -> ran + 1)
        end
      in
      match outcome with
      | Error () -> None
      | Ok ran ->
        if (idx + 1) mod 200 = 0 then
          Printf.printf "  ... %d/%d sequences, %d ops, %d comparisons\n%!" (idx + 1) iters
            !stat_ops !stat_compares;
        sweep (idx + 1) ran
    end
  in
  let result = sweep 0 0 in
  Option.iter
    (fun ran ->
      Printf.printf
        "fuzz: %d sequences over %d scenarios x %d config variants, %d ops, %d compared \
         reads, 0 divergences\n\
         %!"
        ran (Array.length scenarios) (Array.length variants) !stat_ops !stat_compares)
    result;
  Printf.printf "cluster mechanisms: %s\n%!"
    (String.concat ", " (List.mapi (fun i m -> Printf.sprintf "%s %d" m fired.(i)) mechanisms));
  if result = None then 1 else 0
