(** Model-based fuzz harness: replay deterministic op sequences against
    both the optimized engine ({!Pequod_core.Server}) and the naive
    reference model ({!Pequod_oracle.Oracle}) under a sweep of
    {!Config.t} variants, asserting result equality on every read and
    re-checking every structural invariant after every op.

    One {e case} is (scenario, variant, op sequence):

    - a {e scenario} fixes the installed joins and the op generator's
      key vocabulary (timelines, aggregates, chained joins, pull,
      snapshot, the Newp page, ...);
    - a {e variant} fixes the engine configuration (each §3/§4
      optimization toggled, subtables, eviction pressure, durability
      with crash-recovery) and the {!cluster} shape: homes, computes or
      shards wired together through the shipped partition directory;
    - the op sequence is derived from one root seed via {!derive_seed},
      so every run, failure, and shrink is reproducible byte-for-byte.

    [Crash] ops (meaningful under the persist variants) kill the engine
    through {!Persist.crash}, recover a fresh one from the data
    directory, and keep going — the oracle never crashes, so recovered
    state is differentially checked like any other.

    On divergence the driver greedily shrinks the sequence (ddmin-style
    chunk removal) and writes a replayable repro file; see
    [fuzz_main.ml] or `make fuzz` / `make fuzz-replay`. *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Persist = Pequod_persist.Persist
module Oracle = Pequod_oracle.Oracle
module Shard = Pequod_server_lib.Shard
module Net_server = Pequod_server_lib.Net_server
module Directory = Pequod_server_lib.Directory
module Remote = Pequod_server_lib.Remote
module Message = Pequod_proto.Message
module Joinspec = Pequod_pattern.Joinspec

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

let op_to_line = function
  | Put (k, v) -> Printf.sprintf "op put %S %S" k v
  | Put_batch pairs ->
    let buf = Buffer.create 64 in
    Buffer.add_string buf "op putbatch";
    List.iter (fun (k, v) -> Buffer.add_string buf (Printf.sprintf " %S %S" k v)) pairs;
    Buffer.contents buf
  | Remove k -> Printf.sprintf "op remove %S" k
  | Scan (lo, hi) -> Printf.sprintf "op scan %S %S" lo hi
  | Count (lo, hi) -> Printf.sprintf "op count %S %S" lo hi
  | Add_join i -> Printf.sprintf "op addjoin %d" i
  | Tick -> "op tick"
  | Crash -> "op crash"

(* "op putbatch" followed by any number of %S %S pairs on one line *)
let parse_putbatch rest =
  let sc = Scanf.Scanning.from_string rest in
  let acc = ref [] in
  let bad = ref false in
  (try
     while not (Scanf.Scanning.end_of_input sc) do
       Scanf.bscanf sc " %S %S" (fun k v -> acc := (k, v) :: !acc)
     done
   with Scanf.Scan_failure _ | End_of_file | Failure _ -> bad := true);
  if !bad then None else Some (Put_batch (List.rev !acc))

let op_of_line line =
  let try_scan fmt build = try Some (Scanf.sscanf line fmt build) with _ -> None in
  match String.trim line with
  | "op tick" -> Some Tick
  | "op crash" -> Some Crash
  | line when String.length line >= 11 && String.sub line 0 11 = "op putbatch" ->
    parse_putbatch (String.sub line 11 (String.length line - 11))
  | _ -> (
    match try_scan "op put %S %S" (fun k v -> Put (k, v)) with
    | Some _ as r -> r
    | None -> (
      match try_scan "op remove %S" (fun k -> Remove k) with
      | Some _ as r -> r
      | None -> (
        match try_scan "op scan %S %S" (fun lo hi -> Scan (lo, hi)) with
        | Some _ as r -> r
        | None -> (
          match try_scan "op count %S %S" (fun lo hi -> Count (lo, hi)) with
          | Some _ as r -> r
          | None -> try_scan "op addjoin %d" (fun i -> Add_join i)))))

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
  { sc_name = "twip";
    sc_joins = [ timeline_join ];
    sc_extra = [];
    sc_tick = 1.0;
    sc_gen =
      (fun rng ->
        match Rng.int rng 100 with
        | n when n < 22 -> Put (sub rng, "1")
        | n when n < 32 -> Remove (sub rng)
        | n when n < 52 -> Put (post rng, Printf.sprintf "m%d" (Rng.int rng 100))
        | n when n < 60 -> Remove (post rng)
        | n when n < 84 -> let lo, hi = read rng in Scan (lo, hi)
        | n when n < 92 -> let lo, hi = read rng in Count (lo, hi)
        | n when n < 97 -> Tick
        | _ -> Crash) }

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
  { sc_name = "karma";
    sc_joins = [ karma_join ];
    sc_extra = [];
    sc_tick = 1.0;
    sc_gen =
      (fun rng ->
        match Rng.int rng 100 with
        | n when n < 38 -> Put (vote rng, "1")
        | n when n < 60 -> Remove (vote rng)
        | n when n < 80 -> let lo, hi = read rng in Scan (lo, hi)
        | n when n < 92 -> let lo, hi = read rng in Count (lo, hi)
        | n when n < 97 -> Tick
        | _ -> Crash) }

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
  { sc_name = "agg";
    sc_joins =
      [ "low|<user> = min score|<user>|<id>";
        "high|<user> = max score|<user>|<id>";
        "total|<user> = sum score|<user>|<id>" ];
    sc_extra = [];
    sc_tick = 1.0;
    sc_gen =
      (fun rng ->
        match Rng.int rng 100 with
        | n when n < 36 -> Put (score rng, Strkey.encode_int ~width:2 (Rng.int rng 100))
        | n when n < 58 -> Remove (score rng)
        | n when n < 80 -> let lo, hi = read rng in Scan (lo, hi)
        | n when n < 92 -> let lo, hi = read rng in Count (lo, hi)
        | n when n < 97 -> Tick
        | _ -> Crash) }

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
  { sc_name = "chain";
    sc_joins = [ "mid|<x>|<y> = copy base|<x>|<y>"; "topp|<y>|<x> = copy mid|<x>|<y>" ];
    sc_extra = [];
    sc_tick = 1.0;
    sc_gen =
      (fun rng ->
        match Rng.int rng 100 with
        | n when n < 34 -> Put (base rng, Printf.sprintf "v%d" (Rng.int rng 50))
        | n when n < 52 -> Remove (base rng)
        | n when n < 78 -> let lo, hi = read rng in Scan (lo, hi)
        | n when n < 92 -> let lo, hi = read rng in Count (lo, hi)
        | n when n < 97 -> Tick
        | _ -> Crash) }

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
  { sc_name = "newp";
    sc_joins =
      [ karma_join;
        "rank|<author>|<id> = count vote|<author>|<id>|<voter>";
        "page|<author>|<id>|a = copy article|<author>|<id>";
        "page|<author>|<id>|r = copy rank|<author>|<id>";
        "page|<author>|<id>|c|<cid>|<commenter> = copy comment|<author>|<id>|<cid>|<commenter>";
        "page|<author>|<id>|k|<cid>|<commenter> = check \
         comment|<author>|<id>|<cid>|<commenter> copy karma|<commenter>" ];
    sc_extra = [];
    sc_tick = 1.0;
    sc_gen =
      (fun rng ->
        match Rng.int rng 100 with
        | n when n < 12 -> Put (article rng, Printf.sprintf "art%d" (Rng.int rng 10))
        | n when n < 26 -> Put (comment rng, Printf.sprintf "c%d" (Rng.int rng 10))
        | n when n < 32 -> Remove (comment rng)
        | n when n < 48 -> Put (vote rng, "1")
        | n when n < 58 -> Remove (vote rng)
        | n when n < 82 -> let lo, hi = read rng in Scan (lo, hi)
        | n when n < 92 -> let lo, hi = read rng in Count (lo, hi)
        | n when n < 97 -> Tick
        | _ -> Crash) }

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
  { sc_name = "pull";
    sc_joins =
      [ "ct|<time>|<poster> = copy cp|<poster>|<time>";
        "t|<user>|<time>|<poster> = pull copy ct|<time>|<poster> check s|<user>|<poster>" ];
    sc_extra = [];
    sc_tick = 1.0;
    sc_gen =
      (fun rng ->
        match Rng.int rng 100 with
        | n when n < 22 -> Put (sub rng, "1")
        | n when n < 32 -> Remove (sub rng)
        | n when n < 50 -> Put (cpost rng, Printf.sprintf "c%d" (Rng.int rng 50))
        | n when n < 58 -> Remove (cpost rng)
        | n when n < 82 -> let lo, hi = read rng in Scan (lo, hi)
        | n when n < 92 -> let lo, hi = read rng in Count (lo, hi)
        | n when n < 97 -> Tick
        | _ -> Crash) }

let snapshot_scenario =
  let xs = [| "a"; "b"; "c"; "d" |] in
  let live rng = "live|" ^ Rng.pick rng xs in
  let read rng =
    match Rng.int rng 3 with
    | 0 -> prefix_range "snap|"
    | 1 -> exact_range ("snap|" ^ Rng.pick rng xs)
    | _ -> ("", "\xfe")
  in
  { sc_name = "snapshot";
    sc_joins = [ "snap|<x> = snapshot 30 copy live|<x>" ];
    sc_extra = [];
    (* past the 30s period: every compared read sees an expired snapshot
       and must recompute, which is the semantics the oracle models *)
    sc_tick = 31.0;
    sc_gen =
      (fun rng ->
        match Rng.int rng 100 with
        | n when n < 36 -> Put (live rng, Printf.sprintf "m%d" (Rng.int rng 50))
        | n when n < 54 -> Remove (live rng)
        | n when n < 80 -> let lo, hi = read rng in Scan (lo, hi)
        | n when n < 92 -> let lo, hi = read rng in Count (lo, hi)
        | n when n < 97 -> Tick
        | _ -> Crash) }

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
  { sc_name = "mixed";
    sc_joins = [ timeline_join ];
    sc_extra = [ karma_join; "fcount|<user> = count s|<user>|<poster>" ];
    sc_tick = 1.0;
    sc_gen =
      (fun rng ->
        match Rng.int rng 100 with
        | n when n < 18 -> Put (sub rng, "1")
        | n when n < 26 -> Remove (sub rng)
        | n when n < 40 -> Put (post rng, Printf.sprintf "m%d" (Rng.int rng 100))
        | n when n < 46 -> Remove (post rng)
        | n when n < 56 -> Put (vote rng, "1")
        | n when n < 62 -> Remove (vote rng)
        | n when n < 68 -> Add_join (Rng.int rng 2)
        | n when n < 84 -> let lo, hi = read rng in Scan (lo, hi)
        | n when n < 92 -> let lo, hi = read rng in Count (lo, hi)
        | n when n < 97 -> Tick
        | _ -> Crash) }

let scenarios =
  [| twip_scenario; karma_scenario; agg_scenario; chain_scenario; newp_scenario;
     pull_scenario; snapshot_scenario; mixed_scenario |]

(* ------------------------------------------------------------------ *)
(* Config variants                                                     *)

type persist_kind = No_persist | Persist_always of { snapshot_every : int }

(** How a variant wires its engines. Every shape is [n] engines,
    addressed ["0"] .. ["n-1"], behind one shipped {!Directory.t}: a
    write applies at its {!Directory.write_home} and is pushed to every
    engine subscribed to its key, each resolver answers from
    {!Directory.plan}, and every read is pieced by
    {!Directory.scan_route} (see [run_case]). *)
type cluster =
  | Single  (** one engine, an empty directory and no resolver *)
  | Remote
      (** engine 0 homes every base table, engine 1 is the compute under
          test (§3.3). A push to a subscriber is lost on a seeded
          schedule; the compute forgets that subscription and, before
          the next compared read, heals it by a refetch through
          [feed_base], as [Remote]'s heartbeat does *)
  | Session
      (** remote wiring with a {e lagged} push: subscribed writes land
          on the home at once but queue toward the compute with the
          stamp trailer their ack carried, released in random prefixes,
          so the compute's copies are genuinely stale between flushes.
          Every write folds its ack into a model session vector, and
          every compared read demands it and catches up like
          [serve_stamped]: drain the push, then refetch what is still
          behind. A stamped read that serves stale data is a divergence *)
  | Migrate
      (** engines 0 and 1 are homes, engine 2 the compute. A periodic
          event moves one table's live sub-range to the other home
          ([Directory.assign]); reads must follow the directory, and the
          compute's subscriptions survive the move (the Fetch handoff) *)
  | Shards of int
      (** the shard-per-core server: k engines, each owning a
          component-space slice of every table ([Shard.directory]),
          computing join outputs from fetched, subscription-fresh
          sibling slices; reads enter at a rotating shard *)

type variant = {
  va_name : string;
  va_tweak : Config.t -> unit;
  va_persist : persist_kind;
  va_cluster : cluster;
  va_async_feed : bool;
      (** a missing set is fed like the asynchronous read path: a random
          nonempty subset of the reported ranges, in a random order,
          before retrying. Fetch completions land in arbitrary order,
          and a dropped range models a failed fetch the retry reissues:
          the §3.3 restart property the net layer relies on *)
}

let base_variant =
  { va_name = ""; va_tweak = (fun _ -> ()); va_persist = No_persist; va_cluster = Single;
    va_async_feed = false }

let evict c = c.Config.memory_limit <- Some 8192

let variants =
  [| { base_variant with va_name = "default" };
     { base_variant with va_name = "no-hints";
       va_tweak = (fun c -> c.Config.output_hints <- false) };
     { base_variant with va_name = "no-sharing";
       va_tweak = (fun c -> c.Config.value_sharing <- false) };
     { base_variant with va_name = "no-combine";
       va_tweak = (fun c -> c.Config.combine_updaters <- false) };
     { base_variant with va_name = "eager-checks";
       va_tweak = (fun c -> c.Config.lazy_checks <- false) };
     { base_variant with va_name = "log-limit-1";
       va_tweak = (fun c -> c.Config.pending_log_limit <- 1) };
     { base_variant with va_name = "subtables";
       va_tweak = (fun c -> c.Config.table_config <- (fun _ -> Some 2)) };
     { base_variant with va_name = "evict"; va_tweak = evict };
     { base_variant with va_name = "evict-no-combine";
       va_tweak =
         (fun c ->
           evict c;
           c.Config.combine_updaters <- false) };
     { base_variant with va_name = "persist";
       va_persist = Persist_always { snapshot_every = 0 } };
     { base_variant with va_name = "persist-snap";
       va_persist = Persist_always { snapshot_every = 7 } };
     { base_variant with va_name = "remote"; va_cluster = Remote };
     { base_variant with va_name = "remote-evict"; va_tweak = evict; va_cluster = Remote };
     { base_variant with va_name = "remote-async"; va_cluster = Remote; va_async_feed = true };
     { base_variant with va_name = "remote-async-evict"; va_tweak = evict;
       va_cluster = Remote; va_async_feed = true };
     { base_variant with va_name = "session"; va_cluster = Session };
     { base_variant with va_name = "session-evict"; va_tweak = evict; va_cluster = Session };
     { base_variant with va_name = "migrate"; va_cluster = Migrate };
     { base_variant with va_name = "migrate-evict"; va_tweak = evict; va_cluster = Migrate };
     { base_variant with va_name = "shards-2"; va_cluster = Shards 2 };
     { base_variant with va_name = "shards-3"; va_cluster = Shards 3 };
     { base_variant with va_name = "shards-2-evict"; va_tweak = evict;
       va_cluster = Shards 2 } |]

let find_scenario name = Array.find_opt (fun s -> s.sc_name = name) scenarios
let find_variant name = Array.find_opt (fun v -> v.va_name = name) variants

(* ------------------------------------------------------------------ *)
(* Case execution                                                      *)

type failure = { f_step : int; f_reason : string }

exception Case_failed of failure

(* cumulative across the process; reported by the sweep summary *)
let stat_cases = ref 0
let stat_ops = ref 0
let stat_compares = ref 0

(* how often each cluster mechanism fired, cumulative likewise: ranges
   fed, feeds of a range the session gate found behind, lagged pushes
   released, directory flips, scan pieces served by another engine than
   the one read, lost subscriptions healed *)
let stat_feeds = ref 0
let stat_refetches = ref 0
let stat_released = ref 0
let stat_flips = ref 0
let stat_forwarded = ref 0
let stat_heals = ref 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let fresh_dir =
  let counter = ref 0 in
  fun ~prefix () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)
    in
    rm_rf dir;
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let show_pairs pairs =
  let shown = List.filteri (fun i _ -> i < 6) pairs in
  let body = String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%S=%S" k v) shown) in
  Printf.sprintf "[%s%s] (%d)" body (if List.length pairs > 6 then "; ..." else "")
    (List.length pairs)

let first_diff got want =
  let rec go i g w =
    match (g, w) with
    | [], [] -> "(equal?)"
    | (k, v) :: _, [] -> Printf.sprintf "index %d: engine has extra %S=%S" i k v
    | [], (k, v) :: _ -> Printf.sprintf "index %d: engine misses %S=%S" i k v
    | (gk, gv) :: g', (wk, wv) :: w' ->
      if gk = wk && gv = wv then go (i + 1) g' w'
      else Printf.sprintf "index %d: engine %S=%S, oracle %S=%S" i gk gv wk wv
  in
  go 0 got want

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
    every compared read agreed, every invariant held, and the final
    whole-keyspace scan matched; [Error f] pinpoints the first bad
    step. Always cleans up its persist directory. *)
let run_case scenario variant ops =
  incr stat_cases;
  let clock = ref 1_000_000.0 in
  let config = Config.default () in
  variant.va_tweak config;
  config.Config.now <- (fun () -> !clock);
  let data_dir =
    match variant.va_persist with
    | No_persist -> None
    | Persist_always _ -> Some (fresh_dir ~prefix:"pequod-fuzz" ())
  in
  let step = ref (-1) in
  let fail fmt =
    Printf.ksprintf
      (fun reason -> raise (Case_failed { f_step = !step; f_reason = reason }))
      fmt
  in
  let cluster = variant.va_cluster in
  let n = match cluster with Single -> 1 | Remote | Session -> 2 | Migrate -> 3 | Shards k -> k in
  let engs = Array.init n (fun _ -> Server.create ~config ()) in
  let persist = ref None in
  let attach () =
    match (variant.va_persist, data_dir) with
    | Persist_always { snapshot_every }, Some d ->
      let p = Config.default_persist ~dir:d in
      p.Config.p_sync <- Config.Sync_always;
      p.Config.p_snapshot_every <- snapshot_every;
      p.Config.p_wal_max_bytes <- 1 lsl 20;
      persist := Some (Persist.attach engs.(0) p)
    | _ -> persist := None
  in
  let oracle = Oracle.create () in
  let addr = string_of_int and idx = int_of_string in
  (* clients talk to the last engine (the compute); shards rotate reads *)
  let client = n - 1 in
  let tables = base_tables scenario in
  let dir =
    match cluster with
    | Single -> Directory.create ()
    | Shards k ->
      (* component-space cuts sized to the generators' vocabulary:
         users ann..dee, digit-led timestamps, voters x/y/z *)
      Shard.directory ~cuts:(if k = 2 then [ "c" ] else [ "b"; "d" ]) ~homes:(List.init k addr)
    | Remote | Session | Migrate -> (
      (* one bare [--partition] spec per base table, homed at engine 0 *)
      let d = Directory.create () in
      match
        Result.bind (Remote.entries_of_specs ~self_addr:"0" tables) (fun entries ->
            Directory.install d ~epoch:1 ~entries)
      with
      | Ok () -> d
      | Error msg -> fail "directory rejected: %s" msg)
  in
  let entries () = Directory.entries dir in
  let plan j ~table ~lo ~hi =
    Directory.plan ~self:(addr j)
      ~outputs:(List.map Joinspec.output_table (Server.joins engs.(j)))
      (entries ()) ~table ~lo ~hi
  in
  if cluster <> Single then
    Array.iteri
      (fun j eng ->
        Server.set_resolver eng (fun ~table ~lo ~hi ->
            match plan j ~table ~lo ~hi with
            | `Unrouted | `Fetch [] -> Server.Local
            | `Fetch _ -> Server.Deferred
            | `Gap -> fail "the directory leaves a gap in %s[%S, %S)" table lo hi))
      engs;
  let home_of k =
    match Directory.write_home (entries ()) ~self:(addr client) ~key:k with
    | Some h -> idx h
    | None -> client
  in
  let install_join text =
    Array.iter
      (fun eng ->
        match Server.add_join_text eng text with
        | Ok () -> ()
        | Error msg -> fail "engine rejected join %S: %s" text msg)
      engs;
    match Oracle.add_join_text oracle text with
    | Ok () -> ()
    | Error msg -> fail "oracle rejected join %S: %s" text msg
  in
  (* subs.(j): the (table, lo, hi) clamps engine [j] fetched, each a
     subscription that receives later writes to its keys *)
  let subs = Array.map (fun _ -> ref []) engs in
  let subscribed j k = List.exists (fun (_, lo, hi) -> Strkey.in_range ~lo ~hi k) !(subs.(j)) in
  (* a push reaches its subscriber as one [Notify_batch], applied
     through the shipped one-way path (items, then the stamp trailer) *)
  let deliver (j, items, stamps) =
    ignore (Message.apply_to_server engs.(j) (Message.Notify_batch { items; stamps }))
  in
  (* session mode: pushes queue here, released in prefixes *)
  let push_q = Queue.create () in
  (* the ranges the last session gate found behind the demand *)
  let behind = ref [] in
  let release k =
    for _ = 1 to k do
      Option.iter (fun p -> incr stat_released; deliver p) (Queue.take_opt push_q)
    done
  in
  (* Fetch missing [\[lo, hi)] into engine [j], as [Remote.Fetcher] does:
     plan it, and feed each clamp the owner's snapshot through
     [feed_base], recording the owner's stamp and subscribing. The
     owner's connection is FIFO, so the snapshot lands after every push
     already queued. *)
  let fetch j (table, lo, hi) =
    release (Queue.length push_q);
    match plan j ~table ~lo ~hi with
    | `Unrouted | `Fetch [] -> () (* nothing remote: the retry resolves it Local *)
    | `Gap -> fail "the directory leaves a gap in %s[%S, %S)" table lo hi
    | `Fetch clamps ->
      List.iter
        (fun ((e : Message.dir_entry), clo, chi) ->
          let home = engs.(idx e.de_home) in
          Server.feed_base engs.(j) ~table ~lo:clo ~hi:chi (Server.scan home ~lo:clo ~hi:chi);
          Server.set_range_stamp engs.(j) ~table ~lo:clo ~hi:chi
            (Server.range_stamp home ~table ~lo:clo ~hi:chi);
          incr stat_feeds;
          if List.exists (fun (t, slo, shi) -> t = table && slo < chi && clo < shi) !behind
          then incr stat_refetches;
          subs.(j) := (table, clo, chi) :: !(subs.(j)))
        clamps
  in
  (* remote mode: subscriptions a lost push dropped, healed before the
     next compared read like [Remote]'s heartbeat (a refetch) *)
  let lost = ref [] in
  let heal () =
    List.iter (fun (j, r) -> incr stat_heals; fetch j r) (List.rev !lost);
    lost := []
  in
  (* deterministic loss schedule, seeded from the step and subscriber
     alone, so a shrunk repro loses the same pushes *)
  let push_lost j = Rng.int (Rng.create (Hashtbl.hash ("push-loss", !step, j))) 4 = 0 in
  let session_vec : (string * string * string, int) Hashtbl.t = Hashtbl.create 32 in
  let session_fold =
    List.iter (fun (t, lo, hi, s) ->
        if s > Option.value ~default:0 (Hashtbl.find_opt session_vec (t, lo, hi)) then
          Hashtbl.replace session_vec (t, lo, hi) s)
  in
  (* one client write's push: every subscriber of one of its keys gets
     those items as ONE batch, never split, with the ack's stamp entries
     as its trailer (session mode folds every ack into the vector) *)
  let push items =
    let stamped =
      List.map (fun ((k, _) as item) -> (item, Server.stamps_for_keys engs.(home_of k) [ k ])) items
    in
    if cluster = Session then List.iter (fun (_, s) -> session_fold s) stamped;
    Array.iteri
      (fun j _ ->
        match List.filter (fun ((k, _), _) -> subscribed j k) stamped with
        | [] -> ()
        | fwd ->
          let p = (j, List.map fst fwd, List.concat_map snd fwd) in
          if cluster = Session then Queue.add p push_q
          else if cluster = Remote && push_lost j then begin
            let hit, kept =
              List.partition
                (fun (_, lo, hi) -> List.exists (fun ((k, _), _) -> Strkey.in_range ~lo ~hi k) fwd)
                !(subs.(j))
            in
            subs.(j) := kept;
            lost := List.map (fun r -> (j, r)) hit @ !lost
          end
          else deliver p)
      engs
  in
  (* the read-side gate, mirroring [Net_server.serve_stamped]: demand
     the session's whole vector; if the compute's copies are behind,
     drain the push (the parked read's pump), then unmark whatever is
     still short so the read refetches it fresh from the home *)
  let session_gate () =
    let demand =
      Hashtbl.fold (fun (t, slo, shi) s acc -> (t, slo, shi, s) :: acc) session_vec []
    in
    if demand <> [] && Server.stamp_unsatisfied engs.(client) demand <> [] then begin
      release (Queue.length push_q);
      behind := List.map (fun (t, lo, hi, _) -> (t, lo, hi)) (Server.stamp_unsatisfied engs.(client) demand);
      List.iter (fun (t, lo, hi) -> Server.unmark_present engs.(client) ~table:t ~lo ~hi) !behind
    end
  in
  (* deterministic lag schedule: after op [i], maybe release a random
     prefix of the queued push, seeded from the step index alone *)
  let session_lag i =
    let rng = Rng.create (Hashtbl.hash ("session-lag", i)) in
    if Rng.int rng 2 = 0 then release (Rng.int rng (Queue.length push_q + 1))
  in
  (* migrate mode: move one table's live sub-range, inside one home's
     entry, to the other home as [Migrate] does: copy it to the
     destination, flip the directory with [Directory.assign], delete it
     at the source (the real server unmarks presence; deleting keeps
     every pair at exactly one home, so a later move back cannot
     resurrect stale data) *)
  let migrations = ref 0 in
  let migrate_event () =
    let live t =
      List.concat_map
        (fun (e : Message.dir_entry) -> Server.scan engs.(idx e.de_home) ~lo:e.de_lo ~hi:e.de_hi)
        (Directory.for_table (entries ()) ~table:t)
    in
    let nt = List.length tables in
    match
      List.find_map
        (fun i ->
          let t = List.nth tables ((!migrations + i) mod nt) in
          match live t with _ :: _ :: _ as l -> Some (t, l) | _ -> None)
        (List.init nt Fun.id)
    with
    | None -> ()
    | Some (table, live) -> (
      incr migrations;
      let k = List.length live in
      (* alternate between handing off the tail and a middle slice *)
      let lo, hi =
        if !migrations mod 2 = 1 then (fst (List.nth live (k / 2)), table ^ "}")
        else (fst (List.nth live (k / 4)), fst (List.nth live (3 * k / 4)))
      in
      match
        List.find_opt
          (fun (e : Message.dir_entry) -> Strkey.in_range ~lo:e.de_lo ~hi:e.de_hi lo)
          (Directory.for_table (entries ()) ~table)
      with
      | None -> fail "the directory does not cover %S" lo
      | Some e ->
        let hi = if String.compare e.de_hi hi < 0 then e.de_hi else hi in
        if String.compare lo hi < 0 then begin
          let src = idx e.de_home in
          let dest = 1 - src in
          let moving = Server.scan engs.(src) ~lo ~hi in
          if moving <> [] then Server.put_batch engs.(dest) moving;
          (match Directory.assign (entries ()) ~table ~lo ~hi ~home:(addr dest) with
          | Error msg -> fail "migration of %s[%S, %S) refused: %s" table lo hi msg
          | Ok es -> (
            match Directory.install dir ~epoch:(Directory.epoch dir + 1) ~entries:es with
            | Ok () -> ()
            | Error msg -> fail "flipped directory rejected: %s" msg));
          List.iter (fun (key, _) -> Server.remove engs.(src) key) moving;
          incr stat_flips
        end)
  in
  (* one routed piece served at engine [j] like a parked read: scan,
     fetch whatever it reports missing, retry *)
  let max_attempts = if variant.va_async_feed then 64 else 32 in
  let serve j lo hi =
    let rec converge attempts =
      match Server.scan_result engs.(j) ~lo ~hi with
      | `Ok pairs -> pairs
      | `Missing ranges ->
        if attempts >= max_attempts then
          fail "scan [%S, %S) at %d still missing ranges after %d feeds" lo hi j attempts;
        let to_feed =
          if not variant.va_async_feed then ranges
          else begin
            (* seeded from the read's identity so a repro replays *)
            let rng = Rng.create (Hashtbl.hash (lo, hi, attempts, !stat_compares)) in
            let arr = Array.of_list ranges in
            for i = Array.length arr - 1 downto 1 do
              let r = Rng.int rng (i + 1) in
              let t = arr.(i) in
              arr.(i) <- arr.(r);
              arr.(r) <- t
            done;
            Array.to_list (Array.sub arr 0 (1 + Rng.int rng (Array.length arr)))
          end
        in
        List.iter (fetch j) to_feed;
        converge (attempts + 1)
    in
    converge 0
  in
  (* a client read, as the net layer routes it: the engine read splits
     it with [Directory.scan_route], each piece is served where it is
     routed, and the answers merge in piece order through the shipped
     dedup *)
  let scan_rr = ref 0 in
  let read lo hi =
    heal ();
    if cluster = Session then session_gate ();
    let s =
      match cluster with
      | Shards _ ->
        incr scan_rr;
        (!scan_rr - 1) mod n
      | _ -> client
    in
    List.fold_left
      (fun acc (route, plo, phi) ->
        let j = match route with Directory.Forward (h :: _) -> idx h | _ -> s in
        if j <> s then incr stat_forwarded;
        Net_server.merge_dedup acc (serve j plo phi))
      []
      (Directory.scan_route (entries ()) ~self:(addr s) ~spread:true ~lo ~hi)
  in
  let compare_scan lo hi =
    incr stat_compares;
    clock := !clock +. scenario.sc_tick;
    let got = read lo hi in
    let want = Oracle.scan oracle ~lo ~hi in
    if got <> want then
      fail "scan [%S, %S) diverges — %s\n    engine %s\n    oracle %s" lo hi
        (first_diff got want) (show_pairs got) (show_pairs want)
  in
  let extra = Array.of_list scenario.sc_extra in
  let installed = Array.map (fun _ -> false) extra in
  (* writes into a join's output table have undefined semantics (the
     oracle documents them out of scope), so a generator producing one
     is a scenario bug — fail loudly rather than report a divergence *)
  let guard_sink k =
    let table = Pequod_store.Store.table_name_of k in
    List.iter
      (fun j ->
        if Joinspec.output_table j = table then
          fail "scenario bug: base write %S targets sink table %S" k table)
      (Oracle.joins oracle)
  in
  let apply op =
    incr stat_ops;
    match op with
    | Put (k, v) ->
      guard_sink k;
      Server.put engs.(home_of k) k v;
      push [ (k, Some v) ];
      Oracle.put oracle k v
    | Put_batch pairs ->
      List.iter (fun (k, _) -> guard_sink k) pairs;
      (* split like the net layer's dispatch: each home sees, in
         argument order, exactly the pairs the directory routes to it *)
      Array.iteri
        (fun h eng ->
          match List.filter (fun (k, _) -> home_of k = h) pairs with
          | [] -> ()
          | mine -> Server.put_batch eng mine)
        engs;
      push (List.map (fun (k, v) -> (k, Some v)) pairs);
      (* put_batch is specified as equivalent to sequential puts; the
         oracle applies the same pairs one at a time (argument order —
         the batch's stable sort keeps duplicate keys in argument order,
         so last-write-wins agrees) *)
      List.iter (fun (k, v) -> Oracle.put oracle k v) pairs
    | Remove k ->
      guard_sink k;
      Server.remove engs.(home_of k) k;
      push [ (k, None) ];
      Oracle.remove oracle k
    | Scan (lo, hi) -> compare_scan lo hi
    | Count (lo, hi) ->
      incr stat_compares;
      clock := !clock +. scenario.sc_tick;
      let got = List.length (read lo hi) in
      let want = Oracle.count oracle ~lo ~hi in
      if got <> want then fail "count [%S, %S): engine %d, oracle %d" lo hi got want
    | Tick -> clock := !clock +. 1.0
    | Add_join i ->
      if i < Array.length extra && not installed.(i) then begin
        installed.(i) <- true;
        install_join extra.(i)
      end
    | Crash -> (
      match !persist with
      | None -> () (* no durability: crashing is out of scope *)
      | Some p ->
        Persist.crash p;
        engs.(0) <- Server.create ~config ();
        attach ())
  in
  let guarded what f =
    try f () with
    | Case_failed _ as e -> raise e
    | e -> fail "%s: %s" what (Printexc.to_string e)
  in
  let body () =
    attach ();
    List.iter install_join scenario.sc_joins;
    List.iteri
      (fun i op ->
        step := i;
        guarded ("op " ^ op_to_line op) (fun () -> apply op);
        (* migrate mode: periodically move a range between the homes *)
        if cluster = Migrate && i mod 13 = 7 then guarded "migration event" migrate_event;
        if cluster = Session then session_lag i;
        guarded ("invariants after " ^ op_to_line op) (fun () ->
            Array.iter Server.check_invariants engs))
      ops;
    step := List.length ops;
    compare_scan "" "\xfe"
  in
  let finish () =
    (match !persist with Some p -> (try Persist.close p with _ -> ()) | None -> ());
    match data_dir with Some d -> rm_rf d | None -> ()
  in
  match body () with
  | () ->
    finish ();
    Ok ()
  | exception Case_failed f ->
    finish ();
    Error f
  | exception e ->
    finish ();
    Error { f_step = !step; f_reason = "harness exception: " ^ Printexc.to_string e }

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
  let gen_batch rng first =
    let target = 2 + Rng.int rng 7 in
    let pairs = ref [ first ] and count = ref 1 and tries = ref 0 in
    while !count < target && !tries < 64 do
      incr tries;
      match scenario.sc_gen rng with
      | Put (k, v) ->
        pairs := (k, v) :: !pairs;
        incr count
      | _ -> ()
    done;
    let pairs = List.rev !pairs in
    let pairs =
      if List.length pairs >= 2 && Rng.int rng 4 = 0 then begin
        let arr = Array.of_list pairs in
        let k, _ = arr.(Rng.int rng (Array.length arr)) in
        let _, v = arr.(Rng.int rng (Array.length arr)) in
        pairs @ [ (k, v) ]
      end
      else pairs
    in
    Put_batch pairs
  in
  let gen_one rng =
    match scenario.sc_gen rng with
    | Put _ as p when Rng.int rng 8 = 0 -> gen_batch rng (match p with Put (k, v) -> (k, v) | _ -> assert false)
    | op -> op
  in
  let rec go acc k = if k = 0 then List.rev acc else go (gen_one rng :: acc) (k - 1) in
  go [] n

(** Greedy ddmin-style shrink: repeatedly delete the largest op chunks
    that keep [still_fails] true, halving the chunk size down to single
    ops, until a whole pass removes nothing. Deterministic, and every
    probe replays from scratch, so the result is a genuine minimal-ish
    failing sequence, not an artifact of stale state. *)
let shrink ~still_fails ops =
  let current = ref (Array.of_list ops) in
  let try_without lo len =
    let a = !current in
    let n = Array.length a in
    if lo >= n || len = 0 then false
    else begin
      let len = min len (n - lo) in
      let cand = Array.append (Array.sub a 0 lo) (Array.sub a (lo + len) (n - lo - len)) in
      if still_fails (Array.to_list cand) then begin
        current := cand;
        true
      end
      else false
    end
  in
  let progress = ref true in
  while !progress do
    progress := false;
    let chunk = ref (max 1 (Array.length !current / 2)) in
    while !chunk >= 1 do
      let i = ref 0 in
      while !i < Array.length !current do
        if try_without !i !chunk then progress := true else i := !i + !chunk
      done;
      chunk := (if !chunk = 1 then 0 else !chunk / 2)
    done
  done;
  Array.to_list !current

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
  let scenario = ref None and variant = ref None and ops = ref [] in
  let bad = ref None in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line = "" || line.[0] = '#' then ()
       else if String.length line > 9 && String.sub line 0 9 = "scenario " then
         Scanf.sscanf line "scenario %S" (fun n -> scenario := find_scenario n)
       else if String.length line > 8 && String.sub line 0 8 = "variant " then
         Scanf.sscanf line "variant %S" (fun n -> variant := find_variant n)
       else
         match op_of_line line with
         | Some op -> ops := op :: !ops
         | None -> if !bad = None then bad := Some line
     done
   with End_of_file -> ());
  close_in ic;
  match (!bad, !scenario, !variant) with
  | Some line, _, _ -> Error (Printf.sprintf "unparsable line %S" line)
  | None, None, _ -> Error "missing or unknown scenario"
  | None, _, None -> Error "missing or unknown variant"
  | None, Some s, Some v -> Ok (s, v, List.rev !ops)

let replay_file ~verbose path =
  match load_repro path with
  | Error msg -> Error { f_step = -1; f_reason = "bad repro file: " ^ msg }
  | Ok (scenario, variant, ops) ->
    Printf.printf "replaying %d ops: scenario %s, variant %s\n%!" (List.length ops)
      scenario.sc_name variant.va_name;
    if verbose then List.iter (fun op -> print_endline ("  " ^ op_to_line op)) ops;
    run_case scenario variant ops

(* ------------------------------------------------------------------ *)
(* The sweep driver                                                    *)

(** Run [iters] cases from [seed]: case [i] pairs scenario [i mod |S|]
    with variant [(i / |S|) mod |V|] and replays ops generated from
    stream {!derive_seed}[ seed i], so every (scenario, variant) pair
    recurs with fresh sequences. Stops at the first divergence, shrinks
    it, writes a repro under [repro_dir], and returns the failure count
    (0 on a clean sweep). *)
let run_sweep ?(verbose = false) ?scenario_filter ?variant_filter ?(repro_dir = ".")
    ~seed ~iters ~max_ops () =
  let failures = ref 0 in
  let ran = ref 0 in
  let stop = ref false in
  let i = ref 0 in
  while (not !stop) && !i < iters do
    let idx = !i in
    let scenario = scenarios.(idx mod Array.length scenarios) in
    let variant = variants.(idx / Array.length scenarios mod Array.length variants) in
    let skip =
      (match scenario_filter with Some n -> n <> scenario.sc_name | None -> false)
      || match variant_filter with Some n -> n <> variant.va_name | None -> false
    in
    if not skip then begin
      incr ran;
      let rng = Rng.create (derive_seed seed idx) in
      let ops = gen_ops scenario rng ~max_ops in
      if verbose then
        Printf.printf "iter %d: %s x %s (%d ops)\n%!" idx scenario.sc_name variant.va_name
          (List.length ops);
      match run_case scenario variant ops with
      | Ok () -> ()
      | Error f ->
        incr failures;
        stop := true;
        Printf.printf "FAIL iter %d (scenario %s, variant %s, seed %d) at step %d:\n  %s\n%!"
          idx scenario.sc_name variant.va_name seed f.f_step f.f_reason;
        Printf.printf "shrinking %d ops...\n%!" (List.length ops);
        let still_fails ops' = Result.is_error (run_case scenario variant ops') in
        let small = shrink ~still_fails ops in
        let path = Filename.concat repro_dir (Printf.sprintf "fuzz-repro-%d.txt" idx) in
        write_repro ~path ~seed ~iter:idx scenario variant small;
        (match run_case scenario variant small with
        | Error f' ->
          Printf.printf "shrunk to %d ops, failing at step %d:\n  %s\n" (List.length small)
            f'.f_step f'.f_reason;
          List.iter (fun op -> print_endline ("    " ^ op_to_line op)) small
        | Ok () -> ());
        Printf.printf "repro written to %s; replay with:\n  make fuzz-replay REPRO=%s\n%!" path
          path
    end;
    if (idx + 1) mod 200 = 0 && not !stop then
      Printf.printf "  ... %d/%d sequences, %d ops, %d comparisons\n%!" (idx + 1) iters
        !stat_ops !stat_compares;
    incr i
  done;
  if !failures = 0 then
    Printf.printf
      "fuzz: %d sequences over %d scenarios x %d config variants, %d ops, %d compared \
       reads, 0 divergences\n\
       %!"
      !ran (Array.length scenarios) (Array.length variants) !stat_ops !stat_compares;
  Printf.printf
    "cluster model: %d ranges fed (%d behind a session), %d lagged pushes released, %d \
     flips, %d forwarded scan pieces, %d lost subscriptions healed\n%!"
    !stat_feeds !stat_refetches !stat_released !stat_flips !stat_forwarded !stat_heals;
  !failures
