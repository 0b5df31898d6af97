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
      with crash-recovery, remote mode, where a second in-process
      engine plays the home server behind the resolver, or migrate
      mode, where two home engines sit behind a mutable range directory
      and slices of the live keyspace are periodically live-migrated
      between them mid-sequence);
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

type variant = {
  va_name : string;
  va_tweak : Config.t -> unit;
  va_persist : persist_kind;
  va_remote : bool;
      (** a second plain engine plays the home server for every base
          table; the engine under test resolves missing ranges from it
          (§3.3), with writes forwarded only for subscribed ranges *)
  va_migrate : bool;
      (** remote mode with TWO home engines behind a mutable range
          directory: a periodic migration event snapshot-copies part of
          the live keyspace to the other home and flips the directory,
          modelling live range migration — reads must follow the
          directory only, and the compute side's subscriptions survive
          the move (the Fetch handoff) *)
  va_shards : int;
      (** 0 = off; k >= 2 models the shard-per-core server: k engines,
          each owning a component-space slice of every base table (the
          wildcard directory [Shard.directory] builds), writes routed to
          the owner and forwarded to subscribed siblings, sink tables
          computed by whichever engine serves the scan from fetched,
          subscription-fresh source slices *)
  va_async_feed : bool;
      (** remote mode driven like the asynchronous read path: each
          [`Missing] round feeds a random nonempty subset of the
          reported ranges, in a random order, before retrying — the
          fetch completions of a parked scan land in arbitrary order,
          and a dropped range models a failed fetch the retry reissues.
          Convergence to the same transcript as the in-order feed is
          exactly the §3.3 restart property the net layer relies on *)
  va_session : bool;
      (** remote mode with a {e lagged} push: subscribed writes land on
          the home immediately but queue toward the compute with the
          stamp trailer their ack carried, released in random prefixes —
          so the compute's copies are genuinely stale between flushes.
          Every write folds its ack into a model session vector, every
          compared read demands that vector and, when the compute's
          recorded stamps fall short, catches up exactly like
          [serve_stamped]: drain the push, then refetch what is still
          behind. The oracle is always fresh, so a stamped read that
          serves stale data despite the demand is a divergence *)
}

let base_variant =
  { va_name = ""; va_tweak = (fun _ -> ()); va_persist = No_persist;
    va_remote = false; va_migrate = false; va_shards = 0; va_async_feed = false;
    va_session = false }

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
     { base_variant with va_name = "evict";
       va_tweak = (fun c -> c.Config.memory_limit <- Some 8192) };
     { base_variant with va_name = "evict-no-combine";
       va_tweak =
         (fun c ->
           c.Config.memory_limit <- Some 8192;
           c.Config.combine_updaters <- false) };
     { base_variant with va_name = "persist";
       va_persist = Persist_always { snapshot_every = 0 } };
     { base_variant with va_name = "persist-snap";
       va_persist = Persist_always { snapshot_every = 7 } };
     { base_variant with va_name = "remote"; va_remote = true };
     { base_variant with va_name = "remote-evict";
       va_tweak = (fun c -> c.Config.memory_limit <- Some 8192);
       va_remote = true };
     { base_variant with va_name = "remote-async";
       va_remote = true; va_async_feed = true };
     { base_variant with va_name = "remote-async-evict";
       va_tweak = (fun c -> c.Config.memory_limit <- Some 8192);
       va_remote = true; va_async_feed = true };
     { base_variant with va_name = "session";
       va_remote = true; va_session = true };
     { base_variant with va_name = "session-evict";
       va_tweak = (fun c -> c.Config.memory_limit <- Some 8192);
       va_remote = true; va_session = true };
     { base_variant with va_name = "migrate"; va_migrate = true };
     { base_variant with va_name = "migrate-evict";
       va_tweak = (fun c -> c.Config.memory_limit <- Some 8192);
       va_migrate = true };
     { base_variant with va_name = "shards-2"; va_shards = 2 };
     { base_variant with va_name = "shards-3"; va_shards = 3 };
     { base_variant with va_name = "shards-2-evict";
       va_tweak = (fun c -> c.Config.memory_limit <- Some 8192);
       va_shards = 2 } |]

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
  let dir =
    match variant.va_persist with
    | No_persist -> None
    | Persist_always _ -> Some (fresh_dir ~prefix:"pequod-fuzz" ())
  in
  let server = ref (Server.create ~config ()) in
  let persist = ref None in
  let attach () =
    match (variant.va_persist, dir) with
    | Persist_always { snapshot_every }, Some d ->
      let p = Config.default_persist ~dir:d in
      p.Config.p_sync <- Config.Sync_always;
      p.Config.p_snapshot_every <- snapshot_every;
      p.Config.p_wal_max_bytes <- 1 lsl 20;
      persist := Some (Persist.attach !server p)
    | _ -> persist := None
  in
  let oracle = Oracle.create () in
  let step = ref (-1) in
  let fail fmt =
    Printf.ksprintf
      (fun reason -> raise (Case_failed { f_step = !step; f_reason = reason }))
      fmt
  in
  (* shard mode: [va_shards] sibling engines each own a disjoint
     component-space slice of every table — the shard layer's wildcard
     directory, modelled in-process and synchronously, with engine [j]
     homed at address ["j"]. Each engine's resolver plans missing source
     ranges against the directory ([Directory.plan]) and serves them from
     the sibling stores, clamped to each sibling's slice; a range inside
     the engine's own slice — and any join-output table, which every
     shard recomputes from subscription-fresh sources — is Local, which
     terminates the recursion (sibling scans are always slice-clamped,
     so they resolve Local on the sibling). Every resolved range is a
     subscription: writes land on the home and are forwarded to
     subscribed siblings, modelling the Notify push. Owners, scan cuts
     and spreads come from the real [Directory] built by
     [Shard.directory], so the fuzzer exercises the shipped routing. *)
  let shards_arr =
    if variant.va_shards < 2 then None
    else begin
      (* component-space cuts sized to the generators' vocabulary:
         users ann..dee, digit-led timestamps, voters x/y/z *)
      let cuts = match variant.va_shards with 2 -> [ "c" ] | _ -> [ "b"; "d" ] in
      let homes = List.init variant.va_shards string_of_int in
      Some
        ( Array.init variant.va_shards (fun _ -> Server.create ~config ()),
          Shard.directory ~cuts ~homes )
    end
  in
  let owner dir k =
    match Directory.home_of dir ~key:k with
    | Some h -> int_of_string h
    | None -> fail "shard directory does not cover %S" k
  in
  let shard_subs =
    match shards_arr with
    | None -> [||]
    | Some (arr, _) -> Array.map (fun _ -> ref []) arr
  in
  let shard_subscribed j k =
    List.exists
      (fun (lo, hi) -> String.compare lo k <= 0 && String.compare k hi < 0)
      !(shard_subs.(j))
  in
  (match shards_arr with
  | None -> ()
  | Some (arr, dir) ->
    Array.iteri
      (fun k _ ->
        Server.set_resolver arr.(k) (fun ~table ~lo ~hi ->
            match
              Directory.plan ~self:(string_of_int k)
                ~outputs:(List.map Pequod_pattern.Joinspec.output_table (Server.joins arr.(k)))
                (Directory.entries dir) ~table ~lo ~hi
            with
            | `Unrouted | `Fetch [] -> Server.Local
            | `Gap -> fail "shard directory leaves a gap in %s[%S, %S)" table lo hi
            | `Fetch clamps ->
              shard_subs.(k) := (lo, hi) :: !(shard_subs.(k));
              (* [Resolved] pairs are applied additively over the
                 range, so the engine's own slice survives the feed *)
              Server.Resolved
                (List.concat_map
                   (fun ((e : Pequod_proto.Message.dir_entry), clo, chi) ->
                     Server.scan arr.(int_of_string e.de_home) ~lo:clo ~hi:chi)
                   clamps)))
      arr);
  let install_join text =
    let on_engine srv =
      match Server.add_join_text srv text with
      | Ok () -> ()
      | Error msg -> fail "engine rejected join %S: %s" text msg
    in
    (match shards_arr with
    | Some (arr, _) -> Array.iter on_engine arr
    | None -> on_engine !server);
    match Oracle.add_join_text oracle text with
    | Ok () -> ()
    | Error msg -> fail "oracle rejected join %S: %s" text msg
  in
  (* remote/migrate modes: [homes] are the home servers for every base
     table — one in remote mode, two behind a mutable range directory in
     migrate mode — and the engine under test is the compute side. Its
     resolver alternates between the synchronous fast path (Resolved, as
     over a healthy TCP peer) and Deferred, which forces the read loop
     below through the feed_base-and-retry restart path (§3.3). Every
     resolved range is a subscription: later writes land on the home
     first and are forwarded only when subscribed, modelling the Notify
     push (which in migrate mode also models the Fetch handoff — the
     subscription keeps delivering across a move). *)
  let homes =
    if variant.va_remote then Some [| Server.create () |]
    else if variant.va_migrate then Some [| Server.create (); Server.create () |]
    else None
  in
  (* the model directory: sorted boundaries, entry (lo, j) homes keys in
     [lo, next boundary) at homes.(j); everything starts at home 0 *)
  let dirb = ref [ ("", 0) ] in
  let dir_segments lo hi =
    let rec go = function
      | [] -> []
      | (slo, j) :: rest ->
        let shi = match rest with (nlo, _) :: _ -> nlo | [] -> "\xff" in
        let clo = if String.compare lo slo > 0 then lo else slo in
        let chi = if String.compare hi shi < 0 then hi else shi in
        if String.compare clo chi < 0 then (clo, chi, j) :: go rest else go rest
    in
    go !dirb
  in
  let home_of k =
    List.fold_left
      (fun acc (slo, j) -> if String.compare slo k <= 0 then j else acc)
      0 !dirb
  in
  let home_scan lo hi =
    match homes with
    | None -> []
    | Some arr ->
      List.concat_map
        (fun (clo, chi, j) -> Server.scan arr.(j) ~lo:clo ~hi:chi)
        (dir_segments lo hi)
  in
  let home_put k v =
    match homes with Some arr -> Server.put arr.(home_of k) k v | None -> ()
  in
  let home_remove k =
    match homes with Some arr -> Server.remove arr.(home_of k) k | None -> ()
  in
  (* split like the net layer's dispatch: each home sees, in argument
     order, exactly the pairs the directory routes to it *)
  let home_put_batch pairs =
    match homes with
    | None -> ()
    | Some arr ->
      Array.iteri
        (fun j eng ->
          match List.filter (fun (k, _) -> home_of k = j) pairs with
          | [] -> ()
          | mine -> Server.put_batch eng mine)
        arr
  in
  (* migrate mode: hand a slice of the live keyspace to the other home —
     snapshot-copy through ordinary writes (the Notify_batch feed), flip
     the directory, then clear the source's copy (the real server
     unmarks presence; the model deletes so every pair lives at exactly
     one home and a later migration back cannot resurrect stale data) *)
  let migrations = ref 0 in
  let dir_assign lo hi dest =
    let hi_home = home_of hi in
    let before = List.filter (fun (slo, _) -> String.compare slo lo < 0) !dirb in
    let after = List.filter (fun (slo, _) -> String.compare slo hi > 0) !dirb in
    dirb :=
      before
      @ (lo, dest)
        :: (if String.compare hi "\xfe" >= 0 then [] else (hi, hi_home) :: after)
  in
  let migrate_event () =
    match homes with
    | Some arr when Array.length arr = 2 ->
      let live = home_scan "" "\xfe" in
      let n = List.length live in
      if n >= 2 then begin
        incr migrations;
        (* alternate between handing off the tail and a middle slice *)
        let lo, hi =
          if !migrations mod 2 = 1 then (fst (List.nth live (n / 2)), "\xfe")
          else (fst (List.nth live (n / 4)), fst (List.nth live (3 * n / 4)))
        in
        if String.compare lo hi < 0 then begin
          let dest = 1 - home_of lo in
          let sources = dir_segments lo hi in
          List.iter
            (fun (clo, chi, j) ->
              if j <> dest then
                List.iter
                  (fun (k, v) -> Server.put arr.(dest) k v)
                  (Server.scan arr.(j) ~lo:clo ~hi:chi))
            sources;
          dir_assign lo hi dest;
          List.iter
            (fun (clo, chi, j) ->
              if j <> dest then
                List.iter
                  (fun (k, _) -> Server.remove arr.(j) k)
                  (Server.scan arr.(j) ~lo:clo ~hi:chi))
            sources
        end
      end
    | _ -> ()
  in
  let subs = ref [] in
  let defer_next = ref false in
  (match homes with
  | None -> ()
  | Some _ ->
    Server.set_resolver !server (fun ~table:_ ~lo ~hi ->
        subs := (lo, hi) :: !subs;
        defer_next := not !defer_next;
        (* session mode resolves everything through the feed loop below,
           which models the FIFO fetch (drain the queued push first) and
           records the fetched range's stamp — a synchronous Resolved
           would bypass both *)
        if !defer_next || variant.va_session then Server.Deferred
        else Server.Resolved (home_scan lo hi)))
  ;
  let subscribed k =
    List.exists
      (fun (lo, hi) -> String.compare lo k <= 0 && String.compare k hi < 0)
      !subs
  in
  let table_of k =
    match String.index_opt k '|' with Some i -> String.sub k 0 i | None -> k
  in
  (* session mode: the push lags. A subscribed write queues here with
     the stamp entries its ack carried instead of being applied to the
     compute immediately; [session_lag] releases random prefixes, so
     between flushes the compute's subscribed copies are genuinely
     behind the home. Flushing an item applies the pair AND records its
     stamp trailer, mirroring [Notify_batch]'s stamps — so the
     compute's recorded stamps measure exactly how far the push has
     caught up, which is what [stamp_unsatisfied] gates on. *)
  let session_vec : (string * string * string, int) Hashtbl.t = Hashtbl.create 32 in
  let session_fold entries =
    List.iter
      (fun (t, slo, shi, s) ->
        let key = (t, slo, shi) in
        match Hashtbl.find_opt session_vec key with
        | Some s' when s' >= s -> ()
        | _ -> Hashtbl.replace session_vec key s)
      entries
  in
  let push_q :
      ((string * string option) list * (string * string * string * int) list) Queue.t =
    Queue.create ()
  in
  let session_flush n =
    for _ = 1 to n do
      match Queue.take_opt push_q with
      | None -> ()
      | Some (items, stamps) ->
        List.iter
          (fun (k, v) ->
            match v with
            | Some v -> Server.put !server k v
            | None -> Server.remove !server k)
          items;
        List.iter
          (fun (t, slo, shi, s) ->
            Server.set_range_stamp !server ~table:t ~lo:slo ~hi:shi s)
          stamps
    done
  in
  (* every session write: the home applies it at once (it is the
     authority), the ack's stamp entries fold into the session vector,
     and the subscribed keys queue as ONE push item — a batch is
     delivered as a single [Notify_batch] with one stamp trailer, never
     split, so duplicate keys inside it cannot be observed mid-batch *)
  let session_write items =
    match homes with
    | None -> ()
    | Some arr ->
      let stamped =
        List.map
          (fun (k, v) -> ((k, v), Server.stamps_for_keys arr.(home_of k) [ k ]))
          items
      in
      List.iter (fun (_, s) -> session_fold s) stamped;
      (match List.filter (fun ((k, _), _) -> subscribed k) stamped with
      | [] -> ()
      | fwd -> Queue.add (List.map fst fwd, List.concat_map snd fwd) push_q)
  in
  (* a fetched copy records the owner's stamp over the fetched range,
     like [Remote.Fetcher] (the replica-warming fix); and because the
     home's connection is FIFO, a fetch response is ordered after every
     notify already emitted — so the queued push drains first *)
  let session_feed table mlo mhi =
    session_flush (Queue.length push_q);
    Server.feed_base !server ~table ~lo:mlo ~hi:mhi (home_scan mlo mhi);
    match homes with
    | None -> ()
    | Some arr ->
      List.iter
        (fun (clo, chi, j) ->
          let s = Server.range_stamp arr.(j) ~table ~lo:clo ~hi:chi in
          if s > 0 then Server.set_range_stamp !server ~table ~lo:clo ~hi:chi s)
        (dir_segments mlo mhi)
  in
  (* the read-side gate, mirroring [Net_server.serve_stamped]: demand
     the session's whole vector; if the compute's copies are behind,
     drain the push (the parked read's pump), then unmark whatever is
     still short so the converge loop refetches it fresh from the home *)
  let session_gate () =
    let demand =
      Hashtbl.fold (fun (t, slo, shi) s acc -> (t, slo, shi, s) :: acc) session_vec []
    in
    if demand <> [] then
      match Server.stamp_unsatisfied !server demand with
      | [] -> ()
      | _ ->
        session_flush (Queue.length push_q);
        List.iter
          (fun (t, ulo, uhi, _) ->
            Server.unmark_present !server ~table:t ~lo:ulo ~hi:uhi)
          (Server.stamp_unsatisfied !server demand)
  in
  (* deterministic lag schedule: after op [i], maybe release a random
     prefix of the queued push — seeded from the step index alone, so a
     shrunk repro replays the exact same flush pattern *)
  let session_lag i =
    let rng = Rng.create (Hashtbl.hash ("session-lag", i)) in
    if Rng.int rng 2 = 0 then session_flush (Rng.int rng (Queue.length push_q + 1))
  in
  let scan_rr = ref 0 in
  let engine_scan lo hi =
    match shards_arr with
    | Some (arr, dir) -> (
      let n = Array.length arr in
      (* the net layer's routing: a rotating shard receives the scan
         (so successive reads exercise different fetch/subscription
         states) as a client request, and [Directory.scan_route] splits
         it; each piece is served where it is routed, and the answers
         merge in piece order through the shipped dedup *)
      let s = !scan_rr mod n in
      incr scan_rr;
      List.fold_left
        (fun acc (route, slo, shi) ->
          let j =
            match route with
            | Directory.Forward (home :: _) -> int_of_string home
            | _ -> s
          in
          Net_server.merge_dedup acc (Server.scan arr.(j) ~lo:slo ~hi:shi))
        []
        (Directory.scan_route (Directory.entries dir) ~self:(string_of_int s) ~spread:true ~lo
           ~hi))
    | None -> (
    match homes with
    | None -> Server.scan !server ~lo ~hi
    | Some _ ->
      let max_attempts = if variant.va_async_feed then 64 else 32 in
      let rec converge attempts =
        match Server.scan_result !server ~lo ~hi with
        | `Ok pairs -> pairs
        | `Missing ranges ->
          if attempts >= max_attempts then
            fail "remote scan [%S, %S) still missing ranges after %d feeds" lo hi attempts;
          let to_feed =
            if not variant.va_async_feed then ranges
            else begin
              (* async-feed modelling: a parked scan's fetches complete
                 in arbitrary order, and some fail — feed a random
                 nonempty subset of the missing set, shuffled, and let
                 the retry reissue the rest. Seeded from the read's
                 identity so a repro file replays identically. *)
              let rng =
                Rng.create (Hashtbl.hash (lo, hi, attempts, !stat_compares))
              in
              let arr = Array.of_list ranges in
              for i = Array.length arr - 1 downto 1 do
                let j = Rng.int rng (i + 1) in
                let t = arr.(i) in
                arr.(i) <- arr.(j);
                arr.(j) <- t
              done;
              Array.to_list (Array.sub arr 0 (1 + Rng.int rng (Array.length arr)))
            end
          in
          List.iter
            (fun (table, mlo, mhi) ->
              if variant.va_session then session_feed table mlo mhi
              else
                Server.feed_base !server ~table ~lo:mlo ~hi:mhi (home_scan mlo mhi))
            to_feed;
          converge (attempts + 1)
      in
      (* session mode: every compared read is a stamped read demanding
         the whole session vector — catch the compute up first *)
      if variant.va_session then session_gate ();
      (* route by table, like a deployed client: join outputs are
         materialized on the compute engine (which pulls any missing
         source ranges first), base tables live on their home *)
      let sinks =
        List.map Pequod_pattern.Joinspec.output_table (Oracle.joins oracle)
      in
      let is_sink k = List.mem (table_of k) sinks in
      let front = List.filter (fun (k, _) -> is_sink k) (converge 0) in
      let base = List.filter (fun (k, _) -> not (is_sink k)) (home_scan lo hi) in
      List.merge (fun (a, _) (b, _) -> String.compare a b) front base)
  in
  let compare_scan lo hi =
    incr stat_compares;
    clock := !clock +. scenario.sc_tick;
    let got = engine_scan lo hi in
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
    let table =
      match String.index_opt k '|' with Some i -> String.sub k 0 i | None -> k
    in
    List.iter
      (fun j ->
        if Pequod_pattern.Joinspec.output_table j = table then
          fail "scenario bug: base write %S targets sink table %S" k table)
      (Oracle.joins oracle)
  in
  let apply op =
    incr stat_ops;
    match op with
    | Put (k, v) -> (
      guard_sink k;
      (match shards_arr with
      | Some (arr, dir) ->
        let o = owner dir k in
        Server.put arr.(o) k v;
        Array.iteri
          (fun j eng -> if j <> o && shard_subscribed j k then Server.put eng k v)
          arr
      | None -> (
        match homes with
        | None -> Server.put !server k v
        | Some _ ->
          home_put k v;
          if variant.va_session then session_write [ (k, Some v) ]
          else if subscribed k then Server.put !server k v));
      Oracle.put oracle k v)
    | Put_batch pairs ->
      List.iter (fun (k, _) -> guard_sink k) pairs;
      (match shards_arr with
      | Some (arr, dir) ->
        (* split like the net layer's routing: each shard sees, in
           argument order, the pairs it homes plus those it subscribes to *)
        Array.iteri
          (fun j eng ->
            match
              List.filter
                (fun (k, _) -> owner dir k = j || shard_subscribed j k)
                pairs
            with
            | [] -> ()
            | mine -> Server.put_batch eng mine)
          arr
      | None -> (
      match homes with
      | None -> Server.put_batch !server pairs
      | Some _ ->
        home_put_batch pairs;
        if variant.va_session then
          session_write (List.map (fun (k, v) -> (k, Some v)) pairs)
        else (
          match List.filter (fun (k, _) -> subscribed k) pairs with
          | [] -> ()
          | fwd -> Server.put_batch !server fwd)));
      (* put_batch is specified as equivalent to sequential puts; the
         oracle applies the same pairs one at a time (argument order —
         the batch's stable sort keeps duplicate keys in argument order,
         so last-write-wins agrees) *)
      List.iter (fun (k, v) -> Oracle.put oracle k v) pairs
    | Remove k -> (
      guard_sink k;
      (match shards_arr with
      | Some (arr, dir) ->
        let o = owner dir k in
        Server.remove arr.(o) k;
        Array.iteri
          (fun j eng -> if j <> o && shard_subscribed j k then Server.remove eng k)
          arr
      | None -> (
        match homes with
        | None -> Server.remove !server k
        | Some _ ->
          home_remove k;
          if variant.va_session then session_write [ (k, None) ]
          else if subscribed k then Server.remove !server k));
      Oracle.remove oracle k)
    | Scan (lo, hi) -> compare_scan lo hi
    | Count (lo, hi) ->
      incr stat_compares;
      clock := !clock +. scenario.sc_tick;
      let got = List.length (engine_scan lo hi) in
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
        server := Server.create ~config ();
        attach ())
  in
  let body () =
    attach ();
    List.iter install_join scenario.sc_joins;
    List.iteri
      (fun i op ->
        step := i;
        (try apply op with
        | Case_failed _ as e -> raise e
        | e -> fail "op %s raised %s" (op_to_line op) (Printexc.to_string e));
        (* migrate mode: periodically live-migrate part of the keyspace
           between the two homes, deterministically mid-sequence *)
        if variant.va_migrate && i mod 13 = 7 then begin
          try migrate_event () with
          | Case_failed _ as e -> raise e
          | e -> fail "migration event raised %s" (Printexc.to_string e)
        end;
        if variant.va_session then session_lag i;
        try
          match shards_arr with
          | Some (arr, _) -> Array.iter Server.check_invariants arr
          | None -> (
            Server.check_invariants !server;
            match homes with
            | Some arr -> Array.iter Server.check_invariants arr
            | None -> ())
        with
        | Case_failed _ as e -> raise e
        | e -> fail "invariants after %s: %s" (op_to_line op) (Printexc.to_string e))
      ops;
    step := List.length ops;
    compare_scan "" "\xfe"
  in
  let finish () =
    (match !persist with Some p -> (try Persist.close p with _ -> ()) | None -> ());
    match dir with Some d -> rm_rf d | None -> ()
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
  !failures
