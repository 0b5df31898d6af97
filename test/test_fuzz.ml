(* Tests for the model-based correctness harness itself: the reference
   oracle against hand-computed values, the repro file format, the
   greedy shrinker, the seed-derivation scheme, and a bounded
   differential sweep covering every scenario x config-variant pair. *)

module F = Pequod_fuzz.Fuzz
module Oracle = Pequod_oracle.Oracle

let check_bool = Test_util.check_bool
let check_int = Test_util.check_int
let check_pairs = Test_util.check_pairs

let oracle_with joins =
  let o = Oracle.create () in
  List.iter
    (fun j ->
      match Oracle.add_join_text o j with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "join %S rejected: %s" j msg)
    joins;
  o

(* ------------------------------------------------------------------ *)
(* Oracle vs hand-computed values                                      *)

let test_oracle_timeline () =
  let o =
    oracle_with [ "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>" ]
  in
  Oracle.put o "s|ann|bob" "1";
  Oracle.put o "p|bob|0005" "hi";
  Oracle.put o "p|bob|0010" "yo";
  Oracle.put o "p|liz|0002" "unsubscribed";
  check_pairs "timeline"
    [ ("t|ann|0005|bob", "hi"); ("t|ann|0010|bob", "yo") ]
    (Oracle.scan o ~lo:"t|" ~hi:"t}");
  Oracle.remove o "s|ann|bob";
  check_pairs "unsubscribe drops everything" [] (Oracle.scan o ~lo:"t|" ~hi:"t}");
  check_int "base untouched" 3 (List.length (Oracle.base_pairs o))

let test_oracle_count () =
  let o = oracle_with [ "karma|<author> = count vote|<author>|<id>|<voter>" ] in
  List.iter
    (fun k -> Oracle.put o k "1")
    [ "vote|ann|01|x"; "vote|ann|01|y"; "vote|ann|02|z"; "vote|bob|01|x" ];
  check_pairs "karma counts"
    [ ("karma|ann", "3"); ("karma|bob", "1") ]
    (Oracle.scan o ~lo:"karma|" ~hi:"karma}");
  Oracle.remove o "vote|bob|01|x";
  check_bool "empty group disappears" true (Oracle.get o "karma|bob" = None)

let test_oracle_chain () =
  let o =
    oracle_with [ "mid|<x>|<y> = copy base|<x>|<y>"; "topp|<y>|<x> = copy mid|<x>|<y>" ]
  in
  Oracle.put o "base|a|1" "v";
  Oracle.put o "base|b|2" "w";
  check_pairs "second hop sees first"
    [ ("topp|1|a", "v"); ("topp|2|b", "w") ]
    (Oracle.scan o ~lo:"topp|" ~hi:"topp}")

let test_oracle_pull () =
  let o =
    oracle_with
      [ "ct|<time>|<poster> = copy cp|<poster>|<time>";
        "t|<user>|<time>|<poster> = pull copy ct|<time>|<poster> check s|<user>|<poster>" ]
  in
  Oracle.put o "s|ann|bob" "1";
  Oracle.put o "cp|bob|0004" "celeb post";
  Oracle.put o "cp|liz|0009" "not followed";
  check_pairs "pull over pushed helper"
    [ ("t|ann|0004|bob", "celeb post") ]
    (Oracle.scan o ~lo:"t|" ~hi:"t}")

let test_join_tables () =
  let module Joinspec = Pequod_pattern.Joinspec in
  let spec =
    match
      Joinspec.parse "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
    with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  check_bool "output table" true (Joinspec.output_table spec = "t");
  check_bool "source tables in order" true (Joinspec.source_tables spec = [ "s"; "p" ])

(* ------------------------------------------------------------------ *)
(* Seed derivation                                                     *)

let test_derive_seed () =
  check_int "deterministic" (F.derive_seed 42 7) (F.derive_seed 42 7);
  check_bool "streams differ" true (F.derive_seed 42 0 <> F.derive_seed 42 1);
  check_bool "roots differ" true (F.derive_seed 42 0 <> F.derive_seed 43 0);
  for i = 0 to 99 do
    check_bool "non-negative" true (F.derive_seed 42 i >= 0)
  done

(* ------------------------------------------------------------------ *)
(* Repro file roundtrip                                                *)

let test_repro_roundtrip () =
  let dir = Test_util.fresh_dir ~prefix:"pequod-fuzz-test" () in
  let path = Filename.concat dir "repro.txt" in
  let ops =
    [ F.Put ("a|b", "v with \"quotes\" and \xfe bytes");
      F.Remove "a|b";
      F.Scan ("", "\xfe");
      F.Count ("a|", "a}");
      F.Add_join 1;
      F.Tick;
      F.Crash ]
  in
  let scenario = Option.get (F.find_scenario "mixed") in
  let variant = Option.get (F.find_variant "persist") in
  F.write_repro ~path ~seed:1 ~iter:2 scenario variant ops;
  (match F.load_repro path with
  | Error msg -> Alcotest.fail msg
  | Ok (s, v, ops') ->
    check_bool "scenario name" true (s.F.sc_name = "mixed");
    check_bool "variant name" true (v.F.va_name = "persist");
    check_bool "ops roundtrip" true (ops = ops'));
  let bogus = Filename.concat dir "bogus.txt" in
  let oc = open_out bogus in
  output_string oc "scenario \"no-such-scenario\"\nvariant \"default\"\nop tick\n";
  close_out oc;
  check_bool "unknown scenario rejected" true (Result.is_error (F.load_repro bogus))

let test_gen_determinism () =
  (* the same (root, stream) regenerates the same op sequence *)
  let scenario = Option.get (F.find_scenario "twip") in
  let gen () = F.gen_ops scenario (Rng.create (F.derive_seed 7 3)) ~max_ops:40 in
  check_bool "same stream, same ops" true (gen () = gen ())

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)

let test_shrinker () =
  (* synthetic predicate: "fails" iff both culprit ops are present; the
     greedy pass must strip all 18 bystanders *)
  let ops = List.init 20 (fun i -> F.Put (Printf.sprintf "k|%02d" i, "v")) in
  let has k ops = List.exists (function F.Put (k', _) -> k' = k | _ -> false) ops in
  let still_fails ops = has "k|03" ops && has "k|13" ops in
  let small = F.shrink ~still_fails ops in
  check_int "shrunk to the culprits" 2 (List.length small);
  check_bool "culprits kept in order" true
    (small = [ F.Put ("k|03", "v"); F.Put ("k|13", "v") ])

(* ------------------------------------------------------------------ *)
(* Bounded differential sweep                                          *)

let test_bounded_sweep () =
  (* two full laps over every scenario x variant pair; any divergence
     fails the test (run `make fuzz` for the long version) *)
  let pairs = Array.length F.scenarios * Array.length F.variants in
  let dir = Test_util.fresh_dir ~prefix:"pequod-fuzz-test" () in
  let failures =
    F.run_sweep ~repro_dir:dir ~seed:20260806 ~iters:(2 * pairs) ~max_ops:25 ()
  in
  check_int "no divergences" 0 failures

(* Coverage guard: every cluster variant must exercise its mechanism on
   a plain scenario, so a refactor that silently makes one local-only
   fails here rather than passing the sweep vacuously. The counts are
   the cores' own registries, summed per case. *)
let test_cluster_coverage () =
  let module Server = Pequod_core.Server in
  let scenario = Option.get (F.find_scenario "twip") in
  Array.iter
    (fun (v : F.variant) ->
      let sums = Hashtbl.create 8 and epochs_moved = ref false in
      let sum name = Option.value ~default:0 (Hashtbl.find_opt sums name) in
      let inspect engs =
        List.iter
          (fun name ->
            Hashtbl.replace sums name
              (sum name + Array.fold_left (fun acc e -> acc + Server.counter e name) 0 engs))
          F.mechanisms;
        (* the followers (every core but the seed, core 0) learned a flip *)
        if
          Array.length engs > 1
          && Array.for_all
               (fun e -> List.assoc_opt "dir.epoch" (Server.stats_snapshot e) > Some 1)
               (Array.sub engs 1 (Array.length engs - 1))
        then epochs_moved := true
      in
      for i = 0 to 3 do
        let ops = F.gen_ops scenario (Rng.create (F.derive_seed 7 i)) ~max_ops:40 in
        match F.run_case ~inspect scenario v ops with
        | Ok () -> ()
        | Error f -> Alcotest.failf "%s: step %d: %s" v.F.va_name f.F.f_step f.F.f_reason
      done;
      let fired name = check_bool (v.F.va_name ^ ": " ^ name) true (sum name > 0) in
      match v.F.va_cluster with
      | F.Single -> ()
      | F.Remote ->
        fired "peer.fetch.in";
        fired "peer.sub.lost"
      | F.Session ->
        fired "session.stale_waits";
        fired "session.refetches"
      | F.Migrate ->
        fired "migrate.keys_moved";
        check_bool (v.F.va_name ^ ": every follower past epoch 1") true !epochs_moved
      | F.Shards _ -> fired "shard.forward.out"
      | F.Spread ->
        fired "peer.fetch.in";
        fired "peer.notify.in")
    F.variants

(* Shrunk repros of defects the fuzzer found on the real path; each case
   failed before its fix. *)
let replay scenario variant ops () =
  let s = Option.get (F.find_scenario scenario) and v = Option.get (F.find_variant variant) in
  match F.run_case ~inspect:ignore s v ops with
  | Ok () -> ()
  | Error f -> Alcotest.failf "step %d: %s" f.F.f_step f.F.f_reason

(* A stamped read refetched its unmet demand once. Another read's fetch
   then made the p table governed, so an entry for a p key it held no
   copy of became an unmet gap, and the read went [Stale] at the
   deadline. *)
let test_stamp_refetch_again =
  replay "mixed" "session"
    [ F.Put ("s|ann|cal", "1"); F.Count ("t|cal|", "t|cal}"); F.Put ("p|dee|0019", "m18") ]

(* A point-range refetch's snapshot landed after the push of a later
   write to that key, on the other connection, and reverted it: the
   compute served a page without the comment. *)
let test_snapshot_after_push =
  replay "newp" "session"
    [ F.Put ("article|ann|102", "art1"); F.Remove "comment|ann|102|c2|ann";
      F.Put ("comment|bob|101|c2|bob", "c1"); F.Scan ("", "\xfe"); F.Crash;
      F.Put ("comment|ann|102|c2|ann", "c5"); F.Remove "vote|bob|101|ann";
      F.Put ("vote|ann|102|bob", "1") ]

let () =
  Alcotest.run "fuzz"
    [
      ( "oracle",
        [
          Alcotest.test_case "timeline join" `Quick test_oracle_timeline;
          Alcotest.test_case "count aggregate" `Quick test_oracle_count;
          Alcotest.test_case "chained joins" `Quick test_oracle_chain;
          Alcotest.test_case "pull join" `Quick test_oracle_pull;
          Alcotest.test_case "join table accessors" `Quick test_join_tables;
        ] );
      ( "harness",
        [
          Alcotest.test_case "seed derivation" `Quick test_derive_seed;
          Alcotest.test_case "repro roundtrip" `Quick test_repro_roundtrip;
          Alcotest.test_case "generator determinism" `Quick test_gen_determinism;
          Alcotest.test_case "shrinker" `Quick test_shrinker;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "all pairs, twice" `Quick test_bounded_sweep;
          Alcotest.test_case "cluster mechanisms fire" `Quick test_cluster_coverage;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "a stamped read refetches again" `Quick test_stamp_refetch_again;
          Alcotest.test_case "a snapshot older than a push" `Quick test_snapshot_after_push;
        ] );
    ]
