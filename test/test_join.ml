(* End-to-end tests of the cache-join engine: execution, incremental
   maintenance, lazy invalidation, aggregates, pull/snapshot annotations,
   chained joins, eviction, resolvers — plus the golden property that
   incremental maintenance always equals from-scratch evaluation. *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Joinspec = Pequod_pattern.Joinspec

let check_bool = Test_util.check_bool
let check_int = Test_util.check_int
let check_pairs = Test_util.check_pairs
let tm = Test_util.tm

let timeline_join = "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

let make_twip ?config () =
  let s = Server.create ?config () in
  Server.add_join_exn s timeline_join;
  s

let post s poster time text = Server.put s (Printf.sprintf "p|%s|%s" poster (tm time)) text
let subscribe s user poster = Server.put s (Printf.sprintf "s|%s|%s" user poster) "1"
let unsubscribe s user poster = Server.remove s (Printf.sprintf "s|%s|%s" user poster)

let timeline ?(from = 0) s user =
  Server.scan s
    ~lo:(Printf.sprintf "t|%s|%s" user (tm from))
    ~hi:(Strkey.prefix_upper (Printf.sprintf "t|%s|" user))

(* ------------------------------------------------------------------ *)
(* Basic timeline behaviour (§2.2)                                     *)

let test_timeline_basic () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  subscribe s "ann" "liz";
  post s "bob" 100 "hello, world!";
  post s "liz" 124 "i'm hungry";
  post s "jim" 130 "not followed";
  check_pairs "timeline"
    [ ("t|ann|0100|bob", "hello, world!"); ("t|ann|0124|liz", "i'm hungry") ]
    (timeline s "ann");
  Server.validate s

let test_timeline_time_bound () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  post s "bob" 90 "old";
  post s "bob" 110 "new";
  check_pairs "only recent" [ ("t|ann|0110|bob", "new") ] (timeline ~from:100 s "ann");
  (* a later scan from 0 extends the materialized range backwards *)
  check_pairs "full" [ ("t|ann|0090|bob", "old"); ("t|ann|0110|bob", "new") ] (timeline s "ann");
  Server.validate s

let test_incremental_post () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  post s "bob" 100 "first";
  ignore (timeline s "ann");
  let execs_before = Server.counter s "exec.recompute_region" in
  (* a new post must flow into the materialized timeline eagerly *)
  post s "bob" 120 "second";
  check_pairs "updated"
    [ ("t|ann|0100|bob", "first"); ("t|ann|0120|bob", "second") ]
    (timeline s "ann");
  let execs_after = Server.counter s "exec.recompute_region" in
  check_int "no recompute needed" execs_before execs_after;
  Server.validate s

let test_post_update_and_remove () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  post s "bob" 100 "v1";
  ignore (timeline s "ann");
  post s "bob" 100 "v2";
  check_pairs "updated in place" [ ("t|ann|0100|bob", "v2") ] (timeline s "ann");
  Server.remove s ("p|bob|" ^ tm 100);
  check_pairs "removed" [] (timeline s "ann");
  Server.validate s

let test_multiple_followers () =
  let s = make_twip () in
  subscribe s "ann" "liz";
  subscribe s "bob" "liz";
  ignore (timeline s "ann");
  ignore (timeline s "bob");
  post s "liz" 200 "fan out";
  check_pairs "ann" [ ("t|ann|0200|liz", "fan out") ] (timeline s "ann");
  check_pairs "bob" [ ("t|bob|0200|liz", "fan out") ] (timeline s "bob");
  Server.validate s

(* Lazy check-source maintenance (§3.2): subscription changes are logged
   and applied at the next query. *)
let test_subscription_insert () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  post s "bob" 100 "from bob";
  post s "liz" 110 "from liz";
  ignore (timeline s "ann");
  subscribe s "ann" "liz";
  check_pairs "liz's old post appears"
    [ ("t|ann|0100|bob", "from bob"); ("t|ann|0110|liz", "from liz") ]
    (timeline s "ann");
  (* and liz's future posts flow eagerly *)
  post s "liz" 120 "more liz";
  check_pairs "new post flows"
    [ ("t|ann|0100|bob", "from bob"); ("t|ann|0110|liz", "from liz");
      ("t|ann|0120|liz", "more liz") ]
    (timeline s "ann");
  Server.validate s

let test_subscription_remove () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  subscribe s "ann" "liz";
  post s "bob" 100 "from bob";
  post s "liz" 110 "from liz";
  ignore (timeline s "ann");
  unsubscribe s "ann" "liz";
  check_pairs "liz gone" [ ("t|ann|0100|bob", "from bob") ] (timeline s "ann");
  (* liz's future posts must not reappear *)
  post s "liz" 120 "ignored";
  check_pairs "still gone" [ ("t|ann|0100|bob", "from bob") ] (timeline s "ann");
  (* but bob is unaffected *)
  post s "bob" 130 "still here";
  check_pairs "bob flows"
    [ ("t|ann|0100|bob", "from bob"); ("t|ann|0130|bob", "still here") ]
    (timeline s "ann");
  Server.validate s

let test_get_on_join_output () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  post s "bob" 100 "hi";
  Alcotest.(check (option string)) "get computes" (Some "hi") (Server.get s "t|ann|0100|bob");
  Alcotest.(check (option string)) "get missing" None (Server.get s "t|ann|0999|bob")

let test_scan_includes_base_data () =
  (* a scan is a plain range read: raw keys interleave with join output *)
  let s = make_twip () in
  subscribe s "ann" "bob";
  post s "bob" 100 "hi";
  let all = Server.scan s ~lo:"" ~hi:"\xfe" in
  check_pairs "everything"
    [ ("p|bob|0100", "hi"); ("s|ann|bob", "1"); ("t|ann|0100|bob", "hi") ]
    all

let test_cross_user_scan () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  subscribe s "cal" "bob";
  post s "bob" 100 "x";
  let got = Server.scan s ~lo:"t|a" ~hi:"t|d" in
  check_pairs "both timelines" [ ("t|ann|0100|bob", "x"); ("t|cal|0100|bob", "x") ] got;
  Server.validate s

(* ------------------------------------------------------------------ *)
(* Aggregates (§2.3)                                                   *)

let karma_join = "karma|<author> = count vote|<author>|<id>|<voter>"

let test_count_aggregate () =
  let s = Server.create () in
  Server.add_join_exn s karma_join;
  Server.put s "vote|ann|01|bob" "1";
  Server.put s "vote|ann|01|liz" "1";
  Server.put s "vote|ann|02|bob" "1";
  Alcotest.(check (option string)) "karma 3" (Some "3") (Server.get s "karma|ann");
  (* incremental *)
  Server.put s "vote|ann|02|jim" "1";
  Alcotest.(check (option string)) "karma 4" (Some "4") (Server.get s "karma|ann");
  Server.remove s "vote|ann|01|bob";
  Alcotest.(check (option string)) "karma 3 again" (Some "3") (Server.get s "karma|ann");
  (* empty group disappears *)
  Server.remove s "vote|ann|01|liz";
  Server.remove s "vote|ann|02|bob";
  Server.remove s "vote|ann|02|jim";
  Alcotest.(check (option string)) "karma gone" None (Server.get s "karma|ann");
  Server.validate s

let test_sum_aggregate () =
  let s = Server.create () in
  Server.add_join_exn s "total|<user> = sum amount|<user>|<id>";
  Server.put s "amount|ann|a" "10";
  Server.put s "amount|ann|b" "32";
  Alcotest.(check (option string)) "sum" (Some "42") (Server.get s "total|ann");
  Server.put s "amount|ann|a" "20";
  Alcotest.(check (option string)) "sum after update" (Some "52") (Server.get s "total|ann");
  Server.remove s "amount|ann|b";
  Alcotest.(check (option string)) "sum after remove" (Some "20") (Server.get s "total|ann")

let test_min_max_aggregate () =
  let s = Server.create () in
  Server.add_join_exn s "low|<user> = min score|<user>|<id>";
  Server.add_join_exn s "high|<user> = max score|<user>|<id>";
  Server.put s "score|ann|a" "5";
  Server.put s "score|ann|b" "3";
  Server.put s "score|ann|c" "9";
  Alcotest.(check (option string)) "min" (Some "3") (Server.get s "low|ann");
  Alcotest.(check (option string)) "max" (Some "9") (Server.get s "high|ann");
  (* removing the extremum forces a recompute *)
  Server.remove s "score|ann|b";
  Alcotest.(check (option string)) "min recomputed" (Some "5") (Server.get s "low|ann");
  Server.remove s "score|ann|c";
  Alcotest.(check (option string)) "max recomputed" (Some "5") (Server.get s "high|ann");
  Server.validate s

let test_aggregate_groups_isolated () =
  let s = Server.create () in
  Server.add_join_exn s karma_join;
  Server.put s "vote|ann|01|bob" "1";
  Server.put s "vote|bob|07|ann" "1";
  Server.put s "vote|bob|07|liz" "1";
  check_pairs "both groups"
    [ ("karma|ann", "1"); ("karma|bob", "2") ]
    (Server.scan s ~lo:"karma|" ~hi:"karma}")

(* ------------------------------------------------------------------ *)
(* Newp interleaved joins (§2.3, Fig 1)                                *)

let newp_joins =
  [
    "karma|<author> = count vote|<author>|<id>|<voter>";
    "rank|<author>|<id> = count vote|<author>|<id>|<voter>";
    "page|<author>|<id>|a = copy article|<author>|<id>";
    "page|<author>|<id>|r = copy rank|<author>|<id>";
    "page|<author>|<id>|c|<cid>|<commenter> = copy comment|<author>|<id>|<cid>|<commenter>";
    "page|<author>|<id>|k|<cid>|<commenter> = check comment|<author>|<id>|<cid>|<commenter> copy karma|<commenter>";
  ]

let make_newp () =
  let s = Server.create () in
  List.iter (Server.add_join_exn s) newp_joins;
  s

let test_newp_page () =
  let s = make_newp () in
  Server.put s "article|bob|101" "A great article";
  Server.put s "comment|bob|101|c1|liz" "nice!";
  Server.put s "vote|bob|101|ann" "1";
  Server.put s "vote|bob|101|jim" "1";
  (* liz has karma from votes on her own article *)
  Server.put s "article|liz|201" "Liz writes";
  Server.put s "vote|liz|201|bob" "1";
  let page = Server.scan s ~lo:"page|bob|101|" ~hi:(Strkey.prefix_upper "page|bob|101|") in
  check_pairs "interleaved page"
    [
      ("page|bob|101|a", "A great article");
      ("page|bob|101|c|c1|liz", "nice!");
      ("page|bob|101|k|c1|liz", "1");
      ("page|bob|101|r", "2");
    ]
    page;
  (* karma updates propagate through the chained join *)
  Server.put s "vote|liz|201|jim" "1";
  let page = Server.scan s ~lo:"page|bob|101|" ~hi:(Strkey.prefix_upper "page|bob|101|") in
  check_bool "karma updated" true (List.mem ("page|bob|101|k|c1|liz", "2") page);
  (* a new vote on the article updates the rank copy *)
  Server.put s "vote|bob|101|liz" "1";
  let page = Server.scan s ~lo:"page|bob|101|" ~hi:(Strkey.prefix_upper "page|bob|101|") in
  check_bool "rank updated" true (List.mem ("page|bob|101|r", "3") page);
  Server.validate s

let test_newp_new_comment () =
  let s = make_newp () in
  Server.put s "article|bob|101" "art";
  ignore (Server.scan s ~lo:"page|bob|101|" ~hi:(Strkey.prefix_upper "page|bob|101|"));
  (* comment arrives after materialization: copy is eager, karma join is
     check-on-comment so it applies lazily *)
  Server.put s "article|liz|201" "liz art";
  Server.put s "vote|liz|201|ann" "1";
  Server.put s "comment|bob|101|c1|liz" "first!";
  let page = Server.scan s ~lo:"page|bob|101|" ~hi:(Strkey.prefix_upper "page|bob|101|") in
  check_pairs "comment and karma appear"
    [ ("page|bob|101|a", "art"); ("page|bob|101|c|c1|liz", "first!");
      ("page|bob|101|k|c1|liz", "1") ]
    page;
  Server.validate s

(* ------------------------------------------------------------------ *)
(* Maintenance annotations (§3.4)                                      *)

let test_pull_join () =
  let s = Server.create () in
  Server.add_join_exn s "mirror|<x>|<y> = pull copy src|<x>|<y>";
  Server.put s "src|a|1" "v1";
  let before = Server.size s in
  check_pairs "pull computes" [ ("mirror|a|1", "v1") ] (Server.scan s ~lo:"mirror|" ~hi:"mirror}");
  check_int "nothing cached" before (Server.size s);
  Server.put s "src|a|2" "v2";
  check_pairs "pull always fresh"
    [ ("mirror|a|1", "v1"); ("mirror|a|2", "v2") ]
    (Server.scan s ~lo:"mirror|" ~hi:"mirror}")

let test_celebrity_joins () =
  (* §2.3: celebrities post under cp|, a push helper range ct| combines
     them in time order, and a pull join filters per user *)
  let s = make_twip () in
  Server.add_join_exn s "ct|<time>|<poster> = copy cp|<poster>|<time>";
  Server.add_join_exn s
    "t|<user>|<time>|<poster> = pull copy ct|<time>|<poster> check s|<user>|<poster>";
  subscribe s "ann" "bob";
  subscribe s "ann" "celeb";
  post s "bob" 100 "normal";
  Server.put s ("cp|celeb|" ^ tm 110) "celebrity tweet";
  check_pairs "merged timeline"
    [ ("t|ann|0100|bob", "normal"); ("t|ann|0110|celeb", "celebrity tweet") ]
    (timeline s "ann");
  (* the celebrity tweet is never materialized in t| *)
  check_bool "not cached" true (Server.get s "ct|0110|celeb" <> None);
  let stored = Server.scan s ~lo:"t|ann|0110|celeb" ~hi:"t|ann|0110|celeb\x00" in
  check_pairs "pull result served" [ ("t|ann|0110|celeb", "celebrity tweet") ] stored;
  Server.validate s

let test_snapshot_join () =
  let clock = ref 1000.0 in
  let config = Config.default () in
  config.Config.now <- (fun () -> !clock);
  let s = Server.create ~config () in
  Server.add_join_exn s "snap|<x> = snapshot 30 copy live|<x>";
  Server.put s "live|a" "v1";
  check_pairs "computed" [ ("snap|a", "v1") ] (Server.scan s ~lo:"snap|" ~hi:"snap}");
  (* within the snapshot window changes are not reflected *)
  Server.put s "live|a" "v2";
  clock := 1010.0;
  check_pairs "stale inside window" [ ("snap|a", "v1") ] (Server.scan s ~lo:"snap|" ~hi:"snap}");
  (* after expiry the snapshot is recomputed *)
  clock := 1031.0;
  check_pairs "fresh after expiry" [ ("snap|a", "v2") ] (Server.scan s ~lo:"snap|" ~hi:"snap}");
  Server.validate s

(* ------------------------------------------------------------------ *)
(* Chained joins and installation checks                               *)

let test_chained_join_maintenance () =
  let s = Server.create () in
  Server.add_join_exn s "mid|<x>|<y> = copy base|<x>|<y>";
  Server.add_join_exn s "topp|<y>|<x> = copy mid|<x>|<y>";
  Server.put s "base|a|1" "v";
  check_pairs "chained" [ ("topp|1|a", "v") ] (Server.scan s ~lo:"topp|" ~hi:"topp}");
  (* updates ripple through both joins *)
  Server.put s "base|a|1" "w";
  check_pairs "ripple" [ ("topp|1|a", "w") ] (Server.scan s ~lo:"topp|" ~hi:"topp}");
  Server.put s "base|b|2" "x";
  check_pairs "new key ripples"
    [ ("topp|1|a", "w"); ("topp|2|b", "x") ]
    (Server.scan s ~lo:"topp|" ~hi:"topp}");
  Server.validate s

let test_cycle_rejected () =
  let s = Server.create () in
  Server.add_join_exn s "b|<x> = copy a|<x>";
  (match Server.add_join_text s "a|<x> = copy b|<x>" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "indirect cycle accepted");
  match Server.add_join_text s "c|<x> = copy c|<x>" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "direct cycle accepted"

(* ------------------------------------------------------------------ *)
(* Eviction (§2.5)                                                     *)

let test_eviction_and_recovery () =
  let config = Config.default () in
  config.Config.memory_limit <- Some 6_000;
  let s = Server.create ~config () in
  Server.add_join_exn s timeline_join;
  for u = 0 to 9 do
    let user = Printf.sprintf "u%02d" u in
    subscribe s user "bob"
  done;
  for i = 0 to 19 do
    post s "bob" i (Printf.sprintf "tweet %d" i)
  done;
  (* materialize many timelines to trip the limit *)
  for u = 0 to 9 do
    ignore (timeline s (Printf.sprintf "u%02d" u))
  done;
  check_bool "eviction happened" true
    (Server.counter s "evict.cover" > 0);
  (* evicted timelines recompute correctly on demand *)
  let tl = timeline s "u00" in
  check_int "complete timeline" 20 (List.length tl);
  check_pairs "first entry" [ ("t|u00|0000|bob", "tweet 0") ] [ List.hd tl ];
  Server.validate s

(* A read that hits keeps its timeline recent (§2.5's LRU). Two
   timelines fit under the limit; [u00] is read again after each of the
   other nine is materialized, so it is never the least recently used
   and never recomputes. When hits did not touch the LRU, eviction was
   first-in first-out: [u00] recomputed 4 times in 9 (12 evictions). *)
let test_hits_stay_recent () =
  let config = Config.default () in
  config.Config.memory_limit <- Some 9_000;
  let s = make_twip ~config () in
  let users = List.init 10 (fun u -> Printf.sprintf "u%02d" u) in
  List.iter (fun u -> subscribe s u "bob") users;
  for i = 0 to 14 do
    post s "bob" i (Printf.sprintf "tweet %d" i)
  done;
  check_int "u00 materialized" 15 (List.length (timeline s "u00"));
  let recomputed = ref 0 in
  List.iter
    (fun u ->
      ignore (timeline s u);
      let before = Server.counter s "exec.recompute_region" in
      check_int "u00 whole" 15 (List.length (timeline s "u00"));
      recomputed := !recomputed + Server.counter s "exec.recompute_region" - before)
    (List.tl users);
  check_bool "timelines were evicted" true (Server.counter s "evict.cover" > 0);
  check_int "u00 never recomputed" 0 !recomputed;
  Server.check_invariants s

let test_eviction_join_interplay () =
  (* evicting a materialized join range must be invisible to readers:
     the next scan recomputes the range and returns identical pairs,
     matching a from-scratch oracle evaluation of the same base data *)
  let module Oracle = Pequod_oracle.Oracle in
  let config = Config.default () in
  config.Config.memory_limit <- Some 6_000;
  let s = Server.create ~config () in
  Server.add_join_exn s timeline_join;
  let oracle = Oracle.create () in
  (match Oracle.add_join_text oracle timeline_join with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let put k v =
    Server.put s k v;
    Oracle.put oracle k v
  in
  let users = List.init 10 (fun u -> Printf.sprintf "u%02d" u) in
  List.iter (fun u -> put (Printf.sprintf "s|%s|bob" u) "1") users;
  for i = 0 to 19 do
    put (Printf.sprintf "p|bob|%s" (tm i)) (Printf.sprintf "tweet %d" i)
  done;
  (* materializing every timeline overruns the limit and evicts ranges *)
  let before = List.map (fun u -> timeline s u) users in
  check_bool "eviction happened" true
    (Server.counter s "evict.cover" > 0);
  let recomputes = Server.counter s "exec.recompute_region" in
  let after = List.map (fun u -> timeline s u) users in
  List.iter2 (fun b a -> check_pairs "identical after eviction" b a) before after;
  check_bool "re-scan recomputed evicted ranges" true
    (Server.counter s "exec.recompute_region" > recomputes);
  List.iter
    (fun u ->
      let lo = Printf.sprintf "t|%s|" u in
      check_pairs "oracle agrees"
        (Oracle.scan oracle ~lo ~hi:(Strkey.prefix_upper lo))
        (timeline s u))
    users;
  Server.check_invariants s

(* ------------------------------------------------------------------ *)
(* Resolver / missing data (§3.3)                                      *)

let test_sync_resolver () =
  (* base posts live in a "database"; a blocking host fetches each range
     the scan defers, feeds it, and retries *)
  let db = [ ("p|bob|0100", "hello"); ("p|bob|0150", "again"); ("p|liz|0120", "liz here") ] in
  let fetches = ref 0 in
  let s = make_twip () in
  Server.set_resolver s (fun ~table ~lo:_ ~hi:_ ->
      if table = "p" then begin
        incr fetches;
        Server.Deferred
      end
      else Server.Local);
  subscribe s "ann" "bob";
  check_pairs "timeline from db"
    [ ("t|ann|0100|bob", "hello"); ("t|ann|0150|bob", "again") ]
    (Test_util.scan_fed s ~backing:db ~lo:"t|ann|" ~hi:(Strkey.prefix_upper "t|ann|"));
  check_bool "fetched" true (!fetches > 0)

let test_deferred_resolver () =
  (* asynchronous backing store: scan_result reports what to fetch; the
     host feeds it and retries without recomputing completed work *)
  let pending = ref None in
  let consulted = ref 0 in
  let s = make_twip () in
  Server.set_resolver s (fun ~table ~lo ~hi ->
      if table = "p" then begin
        incr consulted;
        pending := Some (table, lo, hi);
        Server.Deferred
      end
      else Server.Local);
  subscribe s "ann" "bob";
  (match Server.scan_result s ~lo:"t|ann|" ~hi:(Strkey.prefix_upper "t|ann|") with
  | `Missing [ (table, _, _) ] -> Alcotest.(check string) "missing table" "p" table
  | `Missing _ | `Ok _ -> Alcotest.fail "expected one missing range");
  (match !pending with
  | Some (table, lo, hi) ->
    Server.feed_base s ~table ~lo ~hi ~stamp:0 [ ("p|bob|0100", "hello") ]
  | None -> Alcotest.fail "resolver not consulted");
  (match Server.scan_result s ~lo:"t|ann|" ~hi:(Strkey.prefix_upper "t|ann|") with
  | `Ok pairs -> check_pairs "after feed" [ ("t|ann|0100|bob", "hello") ] pairs
  | `Missing _ -> Alcotest.fail "should be resolved now");
  let c1 = !consulted in
  ignore (timeline s "ann");
  check_int "no refetch when present" c1 !consulted;
  Server.validate s

(* A refetched snapshot is the range's whole truth: a resident key it no
   longer holds (say, the push of its removal was lost) goes, and so
   does the join output built from it. This is how a fetched copy heals
   after a missed update. *)
let test_feed_reconciles () =
  let s = make_twip () in
  Server.set_resolver s (fun ~table ~lo:_ ~hi:_ ->
      if table = "p" then Server.Deferred else Server.Local);
  subscribe s "ann" "bob";
  let lo = "p|bob|" and hi = Strkey.prefix_upper "p|bob|" in
  Server.feed_base s ~table:"p" ~lo ~hi ~stamp:0
    [ ("p|bob|0100", "hello"); ("p|bob|0150", "again") ];
  check_pairs "joined from the first snapshot"
    [ ("t|ann|0100|bob", "hello"); ("t|ann|0150|bob", "again") ]
    (timeline s "ann");
  Server.feed_base s ~table:"p" ~lo ~hi ~stamp:0 [ ("p|bob|0150", "again") ];
  check_pairs "the key the refetch lacks is gone" [ ("p|bob|0150", "again") ]
    (Server.scan s ~lo ~hi);
  check_pairs "its output is retracted" [ ("t|ann|0150|bob", "again") ] (timeline s "ann");
  Server.check_invariants s

(* An eager check (lazy_checks = false) that meets a deferred value
   source must not fail the write that fired it: the asynchronous host
   fetches only for scans, so the updater gives its cover up and the
   next read recomputes it, reporting the miss. *)
let test_eager_check_deferred () =
  let config = Config.default () in
  config.Config.lazy_checks <- false;
  let s = make_twip ~config () in
  Server.set_resolver s (fun ~table ~lo:_ ~hi:_ ->
      if table = "p" then Server.Deferred else Server.Local);
  let lo = "t|ann|" and hi = Strkey.prefix_upper "t|ann|" in
  (* materialize the (empty) timeline: its check updater is now live *)
  (match Server.scan_result s ~lo ~hi with
  | `Ok [] -> ()
  | _ -> Alcotest.fail "empty timeline");
  subscribe s "ann" "bob";
  Server.check_invariants s;
  let table, plo, phi =
    match Server.scan_result s ~lo ~hi with
    | `Missing [ ((table, _, _) as r) ] when table = "p" -> r
    | `Missing _ | `Ok _ -> Alcotest.fail "the timeline must report the missing posts"
  in
  Server.check_invariants s;
  Server.feed_base s ~table ~lo:plo ~hi:phi ~stamp:0 [ ("p|bob|0100", "hello") ];
  (match Server.scan_result s ~lo ~hi with
  | `Ok pairs -> check_pairs "joined after the feed" [ ("t|ann|0100|bob", "hello") ] pairs
  | `Missing _ -> Alcotest.fail "should be resolved now");
  Server.check_invariants s

(* ------------------------------------------------------------------ *)
(* Ambiguity (§3)                                                      *)

let test_ambiguous_join_last_wins () =
  let s = Server.create () in
  (* dropping |poster: two same-time posts collide; Pequod stores one *)
  Server.add_join_exn s "t|<user>|<time> = check s|<user>|<poster> copy p|<poster>|<time>";
  Server.put s "s|ann|bob" "1";
  Server.put s "s|ann|liz" "1";
  Server.put s "p|bob|0100" "from bob";
  Server.put s "p|liz|0100" "from liz";
  let tl = Server.scan s ~lo:"t|ann|" ~hi:(Strkey.prefix_upper "t|ann|") in
  check_int "single collapsed output" 1 (List.length tl);
  check_bool "one of the two" true
    (List.mem tl [ [ ("t|ann|0100", "from bob") ]; [ ("t|ann|0100", "from liz") ] ])

(* ------------------------------------------------------------------ *)
(* Cover/updater bookkeeping                                           *)

module Oracle = Pequod_oracle.Oracle

let gauge s name = List.assoc name (Server.stats_snapshot s)
let contexts s = gauge s "updater.contexts"

let config_of ~combine =
  let c = Config.default () in
  c.Config.combine_updaters <- combine;
  c

(* A read heals the whole [Pending] piece it meets, so one heal never
   meets the same subscription twice. A second check source brings the
   repeat back: the join also requires [f|user|poster] ("not muted"), and
   a heal of [s|ann|liz] installs the check on [f|ann|liz] under bindings
   (ann, liz). Unsubscribing retracts only the value source's context,
   so after a resubscription the second heal installs that same (entry,
   bindings) into the same cover again, which the cover already holds:
   no context is added. *)
let test_heal_twice ~combine () =
  let s = Server.create ~config:(config_of ~combine) () in
  Server.add_join_exn s
    ("t|<user>|<time>|<poster> = check s|<user>|<poster> check f|<user>|<poster>"
   ^ " copy p|<poster>|<time>");
  let both = [ ("t|ann|0020|liz", "l20"); ("t|ann|0080|liz", "l80") ] in
  Server.put s "f|ann|liz" "1";
  post s "liz" 20 "l20";
  post s "liz" 80 "l80";
  check_pairs "nobody followed" [] (timeline s "ann");
  subscribe s "ann" "liz";
  check_pairs "first heal, from 50" [ ("t|ann|0080|liz", "l80") ] (timeline ~from:50 s "ann");
  check_pairs "the heal took the whole piece" both (timeline s "ann");
  let healed = contexts s and applied = Server.counter s "exec.apply_log" in
  unsubscribe s "ann" "liz";
  subscribe s "ann" "liz";
  let compared = Server.counter s "updater.dup_checks" in
  check_pairs "second heal" both (timeline s "ann");
  check_int "one heal of the unsubscription and resubscription" (applied + 1)
    (Server.counter s "exec.apply_log");
  if !Obs.enabled then
    check_bool "the repeat was compared" true (Server.counter s "updater.dup_checks" > compared);
  check_int "and added no context" healed (contexts s);
  Server.check_invariants s

(* The staircase: a reader follows one new poster after another and
   checks from a later time each round. A heal that took only the read's
   clip left the rest of the piece [Pending] with its log, and the next
   subscription split it again: 1,001 pieces after 1,000 rounds, and
   logs growing with them. Whole-piece heals keep one piece. *)
let test_no_staircase () =
  let s = make_twip () in
  subscribe s "ann" "p0000";
  post s "p0000" 1 "first";
  ignore (timeline s "ann");
  let limit = (Server.config s).Config.pending_log_limit in
  for i = 1 to 1_000 do
    let poster = Printf.sprintf "p%04d" i in
    subscribe s "ann" poster;
    post s poster (i + 1) poster;
    check_int "newest post only" 1 (List.length (timeline ~from:(i + 1) s "ann"));
    if i mod 100 = 0 then begin
      let pieces = gauge s "status.pieces" and logged = gauge s "status.log_entries" in
      if pieces > 2 then Alcotest.failf "round %d: %d status pieces" i pieces;
      if logged > limit then Alcotest.failf "round %d: %d log entries waiting" i logged
    end
  done;
  check_int "the whole timeline" 1_001 (List.length (timeline s "ann"));
  Server.check_invariants s

(* A compute-like engine in the steady state: a [Local] resolver, so
   every scan runs in collect mode, and every timeline materialized.
   Then 500 rounds each push one new subscription [s|u|p] and check
   [t|u|]. Every check heals the subscription's logged insert on the
   warm path ([op.scan_heal]): one log replay per round, no recompute,
   nothing torn down, and the status map keeps its one piece per
   timeline. *)
let test_warm_heals () =
  let s = make_twip () in
  Server.set_resolver s (fun ~table:_ ~lo:_ ~hi:_ -> Server.Local);
  let readers = 50 and posters = 20 and rounds = 500 in
  let reader r = Printf.sprintf "u%02d" r and poster p = Printf.sprintf "p%02d" p in
  let check r = Server.scan s ~lo:("t|" ^ reader r ^ "|") ~hi:("t|" ^ reader r ^ "}") in
  for p = 0 to posters - 1 do
    post s (poster p) (p + 1) (poster p)
  done;
  for r = 0 to readers - 1 do
    subscribe s (reader r) (poster (r mod posters));
    check_int "first post" 1 (List.length (check r))
  done;
  let counter = Server.counter s in
  let recomputes = counter "exec.recompute_region" and removes = counter "store.remove" in
  let pieces = gauge s "status.pieces" in
  for round = 0 to rounds - 1 do
    let r = round mod readers and k = round / readers in
    Server.put_batch s [ ("s|" ^ reader r ^ "|" ^ poster ((r + 1 + k) mod posters), "1") ];
    let heals = counter "op.scan_heal" and logs = counter "exec.apply_log" in
    let what = Printf.sprintf "round %d" round in
    check_int (what ^ ": every followed post") (k + 2) (List.length (check r));
    check_int (what ^ ": healed on the warm path") (heals + 1) (counter "op.scan_heal");
    check_int (what ^ ": one log replay") (logs + 1) (counter "exec.apply_log")
  done;
  check_int "no recompute" recomputes (counter "exec.recompute_region");
  check_int "nothing torn down" removes (counter "store.remove");
  check_int "one piece per timeline" pieces (gauge s "status.pieces");
  Server.check_invariants s

(* Every [Pending] piece a read lies in heals on the warm path, whatever
   its log holds and however the read is bounded: an unsubscription (a
   logged remove) and a [limit] scan each replay the log in place
   ([op.scan_heal]), with no recompute. *)
let test_every_pending_heals () =
  let s = make_twip () in
  subscribe s "ann" "bob";
  subscribe s "ann" "liz";
  post s "bob" 10 "b10";
  post s "liz" 20 "l20";
  let both = [ ("t|ann|0010|bob", "b10"); ("t|ann|0020|liz", "l20") ] in
  check_pairs "materialized" both (timeline s "ann");
  let counter = Server.counter s in
  let heals what read expect =
    let healed = counter "op.scan_heal" and recomputed = counter "exec.recompute_region" in
    check_pairs what expect (read ());
    check_int (what ^ ": healed on the warm path") (healed + 1) (counter "op.scan_heal");
    check_int (what ^ ": no recompute") recomputed (counter "exec.recompute_region")
  in
  unsubscribe s "ann" "liz";
  heals "unsubscribed" (fun () -> timeline s "ann") [ ("t|ann|0010|bob", "b10") ];
  subscribe s "ann" "liz";
  heals "a limit scan"
    (fun () -> Server.scan ~limit:1 s ~lo:"t|ann|0000" ~hi:(Strkey.prefix_upper "t|ann|"))
    [ ("t|ann|0010|bob", "b10") ];
  check_pairs "resubscribed" both (timeline s "ann");
  Server.check_invariants s

(* Unsubscribing prunes the binding's context (retract_binding); a
   resubscription installs exactly one again, and the timeline matches
   the oracle throughout. *)
let test_resubscribe ~combine () =
  let s = make_twip ~config:(config_of ~combine) () in
  let o = Oracle.create () in
  ignore (Oracle.add_join_text o timeline_join);
  let put k v = Server.put s k v; Oracle.put o k v in
  let del k = Server.remove s k; Oracle.remove o k in
  let lo = "t|ann|" and hi = Strkey.prefix_upper "t|ann|" in
  let same what = check_pairs what (Oracle.scan o ~lo ~hi) (timeline s "ann") in
  put "p|bob|0010" "b10";
  put "p|bob|0030" "b30";
  put "p|liz|0020" "l20";
  put "s|ann|liz" "1";
  put "s|ann|bob" "1";
  same "subscribed";
  let subscribed = contexts s in
  del "s|ann|bob";
  same "unsubscribed";
  check_int "bob's context pruned" (subscribed - 1) (contexts s);
  put "s|ann|bob" "1";
  same "resubscribed";
  check_int "exactly one context again" subscribed (contexts s);
  put "p|bob|0040" "b40";
  same "maintained after resubscribing";
  Server.check_invariants s

(* Two readers following the same many posters: each install's
   duplicate check is bounded by the shorter of the cover's contexts and
   the entry's, so materializing the timelines stays linear in the number
   of posters. Every install for the second reader meets the first's
   entry, so every one compares contexts ([updater.dup_checks]). The
   check counts them, and the store operations of the whole
   materialization, for 8,000 posters against 1,000: linear work scales
   by about 8, a scan of the cover's contexts per install by 64. *)
let test_many_sources () =
  let materialize n =
    let s = make_twip () in
    for p = 0 to n - 1 do
      let poster = Printf.sprintf "p%05d" p in
      subscribe s "ann" poster;
      subscribe s "bob" poster;
      post s poster 1 "x"
    done;
    List.iter (fun u -> check_int (u ^ "'s whole timeline") n (List.length (timeline s u)))
      [ "ann"; "bob" ];
    check_int "one context per reader and poster, plus the checks'" ((2 * n) + 2) (contexts s);
    Server.check_invariants s;
    (Server.counter s "updater.dup_checks", Server.store_ops s)
  in
  let (small, small_ops) = materialize 1_000 and (large, large_ops) = materialize 8_000 in
  if small = 0 && not !Obs.enabled then
    Alcotest.fail "observability is disabled (PEQUOD_OBS): updater.dup_checks is not counted";
  let at_most_9x what large small =
    if small = 0 || large > 9 * small then
      Alcotest.failf "8,000 posters took %d %s, %.1fx the 1,000-poster %d" large what
        (float_of_int large /. float_of_int small) small
  in
  at_most_9x "context comparisons" large small;
  at_most_9x "store operations" large_ops small_ops

(* A fixed seeded op stream over the timeline join: subscriptions come
   and go, posters post and delete, readers scan whole and partial
   timelines and now and then a span of users. Returns a digest of every
   scan's answer and the maintenance counts. *)
let replay config =
  let s = make_twip ~config () in
  let rng = Test_util.rng_of 19 0 in
  let user () = Printf.sprintf "u%02d" (Rng.int rng 24) in
  let answers = Buffer.create 65536 in
  let record pairs =
    List.iter (fun (k, v) -> Buffer.add_string answers (k ^ "=" ^ v ^ "\n")) pairs;
    Buffer.add_char answers ';'
  in
  for i = 1 to 3_000 do
    let r = Rng.int rng 100 in
    let u = user () in
    let v = user () in
    let time = Rng.int rng 400 in
    if r < 15 then subscribe s u v
    else if r < 22 then unsubscribe s u v
    else if r < 60 then post s u time (Printf.sprintf "m%d" i)
    else if r < 65 then Server.remove s (Printf.sprintf "p|%s|%s" u (tm time))
    else if r < 88 then record (timeline s u)
    else if r < 97 then record (timeline ~from:time s u)
    else record (Server.scan s ~lo:("t|" ^ min u v) ~hi:("t|" ^ max u v ^ "}"))
  done;
  Server.check_invariants s;
  ( Digest.to_hex (Digest.string (Buffer.contents answers)),
    List.map (Server.counter s) [ "updater.installed"; "updater.combined"; "updater.run" ] )

(* The replay's answers and counts as the engine gave them with per-cover
   fingerprint tables: the same work, counted. The optimization toggles
   change the counts but never the answers. *)
let test_replay_counts () =
  let answers = "7a936dc82ec3d114b4294d76dbd9b121" in
  let variant name tweak counts =
    let c = Config.default () in
    tweak c;
    let got_answers, got_counts = replay c in
    Alcotest.(check string) (name ^ ": scan answers") answers got_answers;
    Alcotest.(check (list int)) (name ^ ": installed, combined, run") counts got_counts
  in
  variant "default" ignore [ 37; 463; 18260 ];
  variant "no combining" (fun c -> c.Config.combine_updaters <- false) [ 500; 0; 18260 ];
  variant "eager checks" (fun c -> c.Config.lazy_checks <- false) [ 37; 472; 18572 ];
  variant "log limit 1" (fun c -> c.Config.pending_log_limit <- 1) [ 64; 1375; 18265 ];
  variant "evicting" (fun c -> c.Config.memory_limit <- Some 200_000) [ 1670; 7895; 5737 ]

(* ------------------------------------------------------------------ *)
(* Golden property: incremental maintenance == from-scratch evaluation *)

module Smap = Map.Make (String)

(* Naive reference: evaluate the timeline join over current base data. *)
let reference_timeline base =
  Smap.fold
    (fun k _ acc ->
      match String.split_on_char '|' k with
      | [ "s"; user; poster ] ->
        Smap.fold
          (fun k' v acc ->
            match String.split_on_char '|' k' with
            | [ "p"; poster'; time ] when String.equal poster poster' ->
              Smap.add (Printf.sprintf "t|%s|%s|%s" user time poster) v acc
            | _ -> acc)
          base acc
      | _ -> acc)
    base Smap.empty

let prop_incremental_equals_scratch =
  let open QCheck2 in
  let users = [| "ann"; "bob"; "cal"; "dee" |] in
  let user = Gen.map (fun i -> users.(i)) (Gen.int_bound 3) in
  let time = Gen.map (fun n -> Strkey.encode_int ~width:4 n) (Gen.int_bound 30) in
  let op_gen =
    Gen.oneof
      [
        Gen.map2 (fun u p -> `Sub (u, p)) user user;
        Gen.map2 (fun u p -> `Unsub (u, p)) user user;
        Gen.map2 (fun p (t, i) -> `Post (p, t, i)) user (Gen.pair time (Gen.int_bound 99));
        Gen.map2 (fun p t -> `Unpost (p, t)) user time;
        Gen.map (fun u -> `Check u) user;
        Gen.map2 (fun u t -> `CheckFrom (u, t)) user time;
      ]
  in
  let print_op = function
    | `Sub (u, p) -> Printf.sprintf "Sub(%s,%s)" u p
    | `Unsub (u, p) -> Printf.sprintf "Unsub(%s,%s)" u p
    | `Post (p, t, i) -> Printf.sprintf "Post(%s,%s,%d)" p t i
    | `Unpost (p, t) -> Printf.sprintf "Unpost(%s,%s)" p t
    | `Check u -> Printf.sprintf "Check(%s)" u
    | `CheckFrom (u, t) -> Printf.sprintf "CheckFrom(%s,%s)" u t
  in
  Test.make ~name:"incremental timeline == from-scratch join" ~count:120
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    (Gen.list_size (Gen.int_range 1 80) op_gen)
    (fun ops ->
      let s = make_twip () in
      let base = ref Smap.empty in
      let ok = ref true in
      let verify user from =
        let lo = Printf.sprintf "t|%s|%s" user from in
        let hi = Strkey.prefix_upper (Printf.sprintf "t|%s|" user) in
        let got = Server.scan s ~lo ~hi in
        let expect =
          reference_timeline !base |> Smap.bindings
          |> List.filter (fun (k, _) -> Strkey.in_range ~lo ~hi k)
        in
        if got <> expect then ok := false
      in
      List.iter
        (fun op ->
          match op with
          | `Sub (u, p) ->
            Server.put s (Printf.sprintf "s|%s|%s" u p) "1";
            base := Smap.add (Printf.sprintf "s|%s|%s" u p) "1" !base
          | `Unsub (u, p) ->
            Server.remove s (Printf.sprintf "s|%s|%s" u p);
            base := Smap.remove (Printf.sprintf "s|%s|%s" u p) !base
          | `Post (p, t, i) ->
            let v = Printf.sprintf "tweet%d" i in
            Server.put s (Printf.sprintf "p|%s|%s" p t) v;
            base := Smap.add (Printf.sprintf "p|%s|%s" p t) v !base
          | `Unpost (p, t) ->
            Server.remove s (Printf.sprintf "p|%s|%s" p t);
            base := Smap.remove (Printf.sprintf "p|%s|%s" p t) !base
          | `Check u -> verify u (Strkey.encode_int ~width:4 0)
          | `CheckFrom (u, t) -> verify u t)
        ops;
      (* final full verification for every user *)
      Array.iter (fun u -> verify u (Strkey.encode_int ~width:4 0)) users;
      Server.validate s;
      !ok)

(* Same property for the count aggregate. *)
let prop_aggregate_equals_scratch =
  let open QCheck2 in
  let authors = [| "ann"; "bob" |] in
  let author = Gen.map (fun i -> authors.(i)) (Gen.int_bound 1) in
  let id = Gen.map (fun n -> Printf.sprintf "%02d" n) (Gen.int_bound 5) in
  let voter = Gen.map (fun i -> [| "x"; "y"; "z" |].(i)) (Gen.int_bound 2) in
  let op_gen =
    Gen.oneof
      [
        Gen.map (fun (a, (i, v)) -> `Vote (a, i, v)) (Gen.pair author (Gen.pair id voter));
        Gen.map (fun (a, (i, v)) -> `Unvote (a, i, v)) (Gen.pair author (Gen.pair id voter));
        Gen.map (fun a -> `Check a) author;
      ]
  in
  Test.make ~name:"incremental karma == from-scratch count" ~count:120
    (Gen.list_size (Gen.int_range 1 60) op_gen)
    (fun ops ->
      let s = Server.create () in
      Server.add_join_exn s karma_join;
      let base = ref Smap.empty in
      let ok = ref true in
      let verify a =
        let got = Server.get s ("karma|" ^ a) in
        let n =
          Smap.fold
            (fun k _ acc ->
              if String.starts_with ~prefix:("vote|" ^ a ^ "|") k then acc + 1 else acc)
            !base 0
        in
        let expect = if n = 0 then None else Some (string_of_int n) in
        if got <> expect then ok := false
      in
      List.iter
        (fun op ->
          match op with
          | `Vote (a, i, v) ->
            let k = Printf.sprintf "vote|%s|%s|%s" a i v in
            Server.put s k "1";
            base := Smap.add k "1" !base
          | `Unvote (a, i, v) ->
            let k = Printf.sprintf "vote|%s|%s|%s" a i v in
            Server.remove s k;
            base := Smap.remove k !base
          | `Check a -> verify a)
        ops;
      Array.iter verify authors;
      Server.validate s;
      !ok)

(* The optimization toggles must never change results, only performance. *)
let prop_config_equivalence =
  let open QCheck2 in
  let users = [| "ann"; "bob"; "cal" |] in
  let user = Gen.map (fun i -> users.(i)) (Gen.int_bound 2) in
  let time = Gen.map (fun n -> Strkey.encode_int ~width:4 n) (Gen.int_bound 20) in
  let op_gen =
    Gen.oneof
      [
        Gen.map2 (fun u p -> `Sub (u, p)) user user;
        Gen.map2 (fun u p -> `Unsub (u, p)) user user;
        Gen.map2 (fun p t -> `Post (p, t)) user time;
        Gen.map (fun u -> `Check u) user;
      ]
  in
  let print_op = function
    | `Sub (u, p) -> Printf.sprintf "Sub(%s,%s)" u p
    | `Unsub (u, p) -> Printf.sprintf "Unsub(%s,%s)" u p
    | `Post (p, t) -> Printf.sprintf "Post(%s,%s)" p t
    | `Check u -> Printf.sprintf "Check(%s)" u
  in
  Test.make ~name:"optimization flags do not change results" ~count:60
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    (Gen.list_size (Gen.int_range 1 50) op_gen)
    (fun ops ->
      let mk_config variant =
        let c = Config.default () in
        (match variant with
        | 0 -> ()
        | 1 -> c.Config.output_hints <- false
        | 2 -> c.Config.value_sharing <- false
        | 3 -> c.Config.combine_updaters <- false
        | 4 -> c.Config.lazy_checks <- false
        | 5 -> c.Config.pending_log_limit <- 1 (* force escalation *)
        | _ -> c.Config.subtables <- false);
        c
      in
      let run config =
        let s = make_twip ~config () in
        let outputs = ref [] in
        List.iter
          (fun op ->
            match op with
            | `Sub (u, p) -> Server.put s (Printf.sprintf "s|%s|%s" u p) "1"
            | `Unsub (u, p) -> Server.remove s (Printf.sprintf "s|%s|%s" u p)
            | `Post (p, t) -> Server.put s (Printf.sprintf "p|%s|%s" p t) ("m" ^ t)
            | `Check u -> outputs := timeline s u :: !outputs)
          ops;
        Array.iter (fun u -> outputs := timeline s u :: !outputs) users;
        Server.validate s;
        !outputs
      in
      let baseline = run (mk_config 0) in
      List.for_all (fun v -> run (mk_config v) = baseline) [ 1; 2; 3; 4; 5; 6 ])

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "join-engine"
    [
      ( "timeline",
        [
          Alcotest.test_case "basic" `Quick test_timeline_basic;
          Alcotest.test_case "time bound" `Quick test_timeline_time_bound;
          Alcotest.test_case "incremental post" `Quick test_incremental_post;
          Alcotest.test_case "update and remove" `Quick test_post_update_and_remove;
          Alcotest.test_case "multiple followers" `Quick test_multiple_followers;
          Alcotest.test_case "subscription insert" `Quick test_subscription_insert;
          Alcotest.test_case "subscription remove" `Quick test_subscription_remove;
          Alcotest.test_case "get on output" `Quick test_get_on_join_output;
          Alcotest.test_case "scan includes base" `Quick test_scan_includes_base_data;
          Alcotest.test_case "cross-user scan" `Quick test_cross_user_scan;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "count" `Quick test_count_aggregate;
          Alcotest.test_case "sum" `Quick test_sum_aggregate;
          Alcotest.test_case "min/max" `Quick test_min_max_aggregate;
          Alcotest.test_case "groups isolated" `Quick test_aggregate_groups_isolated;
        ] );
      ( "newp",
        [
          Alcotest.test_case "interleaved page" `Quick test_newp_page;
          Alcotest.test_case "new comment" `Quick test_newp_new_comment;
        ] );
      ( "annotations",
        [
          Alcotest.test_case "pull" `Quick test_pull_join;
          Alcotest.test_case "celebrity" `Quick test_celebrity_joins;
          Alcotest.test_case "snapshot" `Quick test_snapshot_join;
        ] );
      ( "composition",
        [
          Alcotest.test_case "chained maintenance" `Quick test_chained_join_maintenance;
          Alcotest.test_case "cycles rejected" `Quick test_cycle_rejected;
          Alcotest.test_case "ambiguous collapses" `Quick test_ambiguous_join_last_wins;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "evict and recover" `Quick test_eviction_and_recovery;
          Alcotest.test_case "evict x join interplay" `Quick test_eviction_join_interplay;
          Alcotest.test_case "hits stay recent" `Quick test_hits_stay_recent;
        ] );
      ( "resolver",
        [
          Alcotest.test_case "sync" `Quick test_sync_resolver;
          Alcotest.test_case "deferred" `Quick test_deferred_resolver;
          Alcotest.test_case "a refetch reconciles" `Quick test_feed_reconciles;
          Alcotest.test_case "eager check meets a deferred source" `Quick
            test_eager_check_deferred;
        ] );
      ( "bookkeeping",
        [
          Alcotest.test_case "heal twice adds no context" `Quick (test_heal_twice ~combine:true);
          Alcotest.test_case "heal twice, no combining" `Quick (test_heal_twice ~combine:false);
          Alcotest.test_case "resubscribe reinstalls once" `Quick (test_resubscribe ~combine:true);
          Alcotest.test_case "resubscribe, no combining" `Quick (test_resubscribe ~combine:false);
          Alcotest.test_case "8,000 posters materialize linearly" `Quick test_many_sources;
          Alcotest.test_case "replay counts match" `Quick test_replay_counts;
          Alcotest.test_case "checks from later times keep one piece" `Quick test_no_staircase;
          Alcotest.test_case "subscriptions heal on the warm path" `Quick test_warm_heals;
          Alcotest.test_case "every pending piece heals on the warm path" `Quick
            test_every_pending_heals;
        ] );
      ( "properties",
        qsuite
          [
            prop_incremental_equals_scratch;
            prop_aggregate_equals_scratch;
            prop_config_equivalence;
          ] );
    ]
