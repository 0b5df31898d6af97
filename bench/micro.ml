(** Bechamel microbenchmarks of the store primitives: the red-black tree
    against the stdlib containers, interval-tree stabbing, pattern
    matching, and the wire codec. These quantify the §6 discussion that
    ordered stores pay versus hash tables, and what the per-operation
    costs underlying the macro results are. *)

open Bechamel
open Toolkit

module Rbtree = Pequod_store.Rbtree
module Interval_map = Pequod_store.Interval_map
module Range_map = Pequod_store.Range_map
module Pattern = Pequod_pattern.Pattern
module Message = Pequod_proto.Message

let nkeys = 10_000

let keys = Array.init nkeys (fun i -> Printf.sprintf "t|u%05d|%010d|p%03d" (i mod 97) i (i mod 31))

let make_rbtree () =
  let t = Rbtree.create ~dummy:0 () in
  Array.iteri (fun i k -> ignore (Rbtree.insert t k i)) keys;
  t

let make_hashtbl () =
  let h = Hashtbl.create nkeys in
  Array.iteri (fun i k -> Hashtbl.replace h k i) keys;
  h

let bench_rbtree_insert =
  Test.make ~name:"rbtree insert 10k" (Staged.stage (fun () -> ignore (make_rbtree ())))

let bench_hashtbl_insert =
  Test.make ~name:"hashtbl insert 10k" (Staged.stage (fun () -> ignore (make_hashtbl ())))

let bench_rbtree_lookup =
  let t = make_rbtree () in
  let i = ref 0 in
  Test.make ~name:"rbtree lookup"
    (Staged.stage (fun () ->
         i := (!i + 7) mod nkeys;
         ignore (Rbtree.find t keys.(!i))))

let bench_hashtbl_lookup =
  let h = make_hashtbl () in
  let i = ref 0 in
  Test.make ~name:"hashtbl lookup"
    (Staged.stage (fun () ->
         i := (!i + 7) mod nkeys;
         ignore (Hashtbl.find_opt h keys.(!i))))

let bench_rbtree_hinted_append =
  Test.make ~name:"rbtree hinted append 1k"
    (Staged.stage (fun () ->
         let t = Rbtree.create ~dummy:0 () in
         let hint = ref None in
         for i = 0 to 999 do
           let k = Printf.sprintf "t|u|%010d" i in
           let node, _ =
             match !hint with
             | Some h -> Rbtree.insert_after t ~hint:h k i
             | None -> Rbtree.insert t k i
           in
           hint := Some node
         done))

(* §4.1: subtables turn whole-table O(log N) descents into an O(1) hash
   jump plus a descent of a tiny per-boundary tree. The effect needs a
   big table: 400k keys across 4k boundaries. *)
let big_nkeys = 400_000

let big_keys =
  Array.init big_nkeys (fun i ->
      Printf.sprintf "t|u%05d|%010d|p%03d" (i mod 4001) i (i mod 31))

let make_table ~subtables =
  let t =
    Pequod_store.Table.create
      ?subtable_depth:(if subtables then Some 2 else None)
      ~name:"t" ~dummy:0 ()
  in
  Array.iteri (fun i k -> ignore (Pequod_store.Table.put t k i)) big_keys;
  t

let bench_table_get_subtables =
  let t = make_table ~subtables:true in
  let i = ref 0 in
  Test.make ~name:"table get, 400k keys (subtables)"
    (Staged.stage (fun () ->
         i := (!i + 7919) mod big_nkeys;
         ignore (Pequod_store.Table.get t big_keys.(!i))))

let bench_table_get_flat =
  let t = make_table ~subtables:false in
  let i = ref 0 in
  Test.make ~name:"table get, 400k keys (one tree)"
    (Staged.stage (fun () ->
         i := (!i + 7919) mod big_nkeys;
         ignore (Pequod_store.Table.get t big_keys.(!i))))

let bench_rbtree_fresh_insert_1k =
  Test.make ~name:"rbtree unhinted insert 1k"
    (Staged.stage (fun () ->
         let t = Rbtree.create ~dummy:0 () in
         for i = 0 to 999 do
           ignore (Rbtree.insert t (Printf.sprintf "t|u|%010d" i) i)
         done))

let bench_interval_stab =
  let im = Interval_map.create () in
  let () =
    for i = 0 to 999 do
      let lo = Printf.sprintf "p|u%04d|" (i mod 200) in
      ignore (Interval_map.add im ~lo ~hi:(Strkey.prefix_upper lo) i)
    done
  in
  let i = ref 0 in
  Test.make ~name:"interval stab (1k updaters)"
    (Staged.stage (fun () ->
         i := (!i + 13) mod 200;
         let k = Printf.sprintf "p|u%04d|0100" !i in
         Interval_map.stab im k (fun _ -> ())))

let bench_pattern_match =
  let names = ref [] in
  let intern n =
    let rec go i = function
      | [] ->
        names := !names @ [ n ];
        i
      | x :: r -> if x = n then i else go (i + 1) r
    in
    go 0 !names
  in
  let p = Pattern.parse ~intern "t|<user>|<time>|<poster>" in
  let bindings = Array.make 3 None in
  Test.make ~name:"pattern match_key"
    (Staged.stage (fun () -> ignore (Pattern.match_key p "t|u00042|0000001234|p007" ~bindings)))

let bench_codec_roundtrip =
  let req = Message.Scan { lo = "t|u00042|0000001234"; hi = "t|u00042}" } in
  Test.make ~name:"message encode+decode"
    (Staged.stage (fun () -> ignore (Message.decode_request (Message.encode_request req))))

(* The batched write pipeline, measured at the engine level: sequential
   puts pay table resolution and a full tree descent per key; put_batch
   sorts once and threads insertion hints across each run. Both paths
   stab the updater tree once per key. Sorted vs shuffled separates the
   hint win from the resolution win; the updater variants add a live
   copy join so updater firing is on the measured path. The dense ones
   put every key under one updater; the sparse ones scatter small
   batches over 10k disjoint updaters, the shape of a subscription push
   (Notify_batch) reaching a compute server. *)
module Engine = Pequod_core.Server

let batch_pairs n = List.init n (fun i -> (Printf.sprintf "b|u%03d|%010d" (i / 256) i, "v"))

let shuffled_pairs n =
  let a = Array.of_list (batch_pairs n) in
  let rng = Rng.create 0xBA7C4 in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let bench_put_path ~name ~batched ~updater pairs =
  Test.make ~name
    (Staged.stage (fun () ->
         let s = Engine.create () in
         if updater then begin
           Engine.add_join_exn s "bb|<u>|<i> = copy b|<u>|<i>";
           (* materialize the (empty) output range so its updater is
              installed before the writes arrive *)
           ignore (Engine.scan s ~lo:"bb|" ~hi:"bb}")
         end;
         if batched then Engine.put_batch s pairs
         else List.iter (fun (k, v) -> Engine.put s k v) pairs))

(* One engine with a materialized copy output per user, so 10k disjoint
   updaters over b|; each run writes 16 batches of 4 keys at scattered
   users. The keys repeat across runs, so the store does not grow. *)
let sparse_users = 10_000

let sparse_engine () =
  let s = Engine.create () in
  Engine.add_join_exn s "bb|<u>|<i> = copy b|<u>|<i>";
  for u = 0 to sparse_users - 1 do
    ignore (Engine.scan s ~lo:(Printf.sprintf "bb|u%05d|" u) ~hi:(Printf.sprintf "bb|u%05d}" u))
  done;
  s

let sparse_batches =
  let rng = Rng.create 0x5BA75 in
  List.init 16 (fun _ ->
      List.init 4 (fun i ->
          (Printf.sprintf "b|u%05d|%010d" (Rng.int rng sparse_users) i, "v")))

let bench_put_sparse ~name ~batched s =
  Test.make ~name
    (Staged.stage (fun () ->
         List.iter
           (fun pairs ->
             if batched then Engine.put_batch s pairs
             else List.iter (fun (k, v) -> Engine.put s k v) (List.sort compare pairs))
           sparse_batches))

let put_seq_10k_sorted = "server put 10k sequential (sorted)"
let put_batch_10k_sorted = "server put 10k batched (sorted)"

let batch_tests =
  let p1k = batch_pairs 1_000 in
  let p10k = batch_pairs 10_000 in
  let s10k = shuffled_pairs 10_000 in
  let sparse = sparse_engine () in
  [
    bench_put_path ~name:"server put 1k sequential (sorted)" ~batched:false ~updater:false p1k;
    bench_put_path ~name:"server put 1k batched (sorted)" ~batched:true ~updater:false p1k;
    bench_put_path ~name:put_seq_10k_sorted ~batched:false ~updater:false p10k;
    bench_put_path ~name:put_batch_10k_sorted ~batched:true ~updater:false p10k;
    bench_put_path ~name:"server put 10k sequential (shuffled)" ~batched:false ~updater:false s10k;
    bench_put_path ~name:"server put 10k batched (shuffled)" ~batched:true ~updater:false s10k;
    bench_put_path ~name:"server put 1k sequential (sorted, updater)" ~batched:false ~updater:true
      p1k;
    bench_put_path ~name:"server put 1k batched (sorted, updater)" ~batched:true ~updater:true p1k;
    bench_put_sparse ~name:"server put sequential (sparse, 10k updaters)" ~batched:false sparse;
    bench_put_sparse ~name:"server put batched (sparse, 10k updaters)" ~batched:true sparse;
  ]

(* The join-status shape: one piece per materialized timeline, with
   gaps between them (30k pieces, about what a 300k-op replay leaves). *)
let npieces = 30_000
let piece_lo i = Printf.sprintf "t|u%05d|" i
let piece_hi i = Printf.sprintf "t|u%05d}" i

let make_range_map () =
  let rm = Range_map.create () in
  for i = 0 to npieces - 1 do
    Range_map.set rm ~lo:(piece_lo i) ~hi:(piece_hi i) i
  done;
  rm

let probe_keys = Array.init 1024 (fun i -> Printf.sprintf "t|u%05d|%010d" (i * 29 mod npieces) i)

let bench_range_map_find =
  let rm = make_range_map () in
  let i = ref 0 in
  Test.make ~name:"range_map find (30k pieces)"
    (Staged.stage (fun () ->
         i := (!i + 1) land 1023;
         ignore (Range_map.find rm probe_keys.(!i))))

(* a logged write splits one piece in three; applying the log heals it *)
let bench_range_map_split_heal =
  let rm = make_range_map () in
  let i = ref 0 in
  Test.make ~name:"range_map update_range split+heal (30k pieces)"
    (Staged.stage (fun () ->
         i := (!i + 7919) mod npieces;
         let lo = piece_lo !i ^ "0000000100" and hi = piece_lo !i ^ "0000000200" in
         Range_map.update_range rm ~lo ~hi (fun _ _ v -> Option.map (fun v -> -v) v);
         Range_map.update_range rm ~lo ~hi (fun _ _ v -> Option.map (fun v -> -v) v);
         Range_map.coalesce rm ~lo ~hi ~eq:Int.equal))

(* Cover bookkeeping: 1k readers, each following 8 of 64 posters that
   have one post each. A run scans every timeline under a zero memory
   limit, so each scan materializes one cover (9 entries, one context
   each: the previous reader's cover, and its entries, are gone) and
   the eviction after it tears the cover down again. *)
let cover_readers = 1_000
let covers_case = "materialize + tear down 1k timeline covers"

let timeline_join = "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

let cover_engine () =
  let config = Pequod_core.Config.default () in
  config.Pequod_core.Config.memory_limit <- Some 0;
  let s = Engine.create ~config () in
  Engine.add_join_exn s timeline_join;
  for p = 0 to 63 do
    Engine.put s (Printf.sprintf "p|p%02d|%010d" p 1) "post"
  done;
  for u = 0 to cover_readers - 1 do
    for k = 0 to 7 do
      Engine.put s (Printf.sprintf "s|u%04d|p%02d" u (((u * 7) + (k * 8)) mod 64)) "1"
    done
  done;
  s

let cover_ranges =
  Array.init cover_readers (fun u -> (Printf.sprintf "t|u%04d|" u, Printf.sprintf "t|u%04d}" u))

let run_covers s = Array.iter (fun (lo, hi) -> ignore (Engine.scan s ~lo ~hi)) cover_ranges

let bench_covers =
  let s = cover_engine () in
  Test.make ~name:covers_case (Staged.stage (fun () -> run_covers s))

(* minor-heap words one cover's materialization and teardown allocate *)
let cover_minor_words () =
  let s = cover_engine () in
  run_covers s;
  let w0 = Gc.minor_words () in
  run_covers s;
  (Gc.minor_words () -. w0) /. float_of_int cover_readers

(* One subscription round on a compute-like engine: a [Local] resolver,
   so scans run in collect mode, and every user's timeline materialized
   from one followed post. A run pushes one new subscription [s|u|p] as a
   one-pair batch (a Notify_batch reaching a compute) and checks
   [t|u|]; users take turns, each following a poster it did not follow
   yet, so every check replays one logged insert. *)
let sub_users = 4_096
let sub_posters = 64
let subscription_case = "subscribe + check one timeline (4k users)"
let sub_user = Array.init sub_users (Printf.sprintf "u%04d")

let sub_engine () =
  let s = Engine.create () in
  Engine.add_join_exn s timeline_join;
  Engine.set_resolver s (fun ~table:_ ~lo:_ ~hi:_ -> Engine.Local);
  for p = 0 to sub_posters - 1 do
    Engine.put s (Printf.sprintf "p|p%02d|%010d" p 1) "post"
  done;
  Array.iteri
    (fun u user ->
      Engine.put s (Printf.sprintf "s|%s|p%02d" user (u mod sub_posters)) "1";
      ignore (Engine.scan s ~lo:("t|" ^ user ^ "|") ~hi:("t|" ^ user ^ "}")))
    sub_user;
  s

(* round [i]: user [i mod sub_users] follows its next poster *)
let subscription_round s i =
  let u = i mod sub_users and k = 1 + (i / sub_users mod (sub_posters - 1)) in
  let user = sub_user.(u) in
  Engine.put_batch s [ (Printf.sprintf "s|%s|p%02d" user ((u + k) mod sub_posters), "1") ];
  ignore (Engine.scan_result s ~lo:("t|" ^ user ^ "|") ~hi:("t|" ^ user ^ "}"))

let bench_subscription =
  let s = sub_engine () in
  let round = ref 0 in
  Test.make ~name:subscription_case
    (Staged.stage (fun () ->
         subscription_round s !round;
         incr round))

(* minor-heap words one subscription round allocates *)
let subscription_minor_words () =
  let s = sub_engine () in
  let rounds = 2 * sub_users in
  let w0 = Gc.minor_words () in
  for i = 0 to rounds - 1 do
    subscription_round s i
  done;
  (Gc.minor_words () -. w0) /. float_of_int rounds

let all_tests =
  [
    bench_rbtree_insert;
    bench_hashtbl_insert;
    bench_rbtree_lookup;
    bench_hashtbl_lookup;
    bench_rbtree_hinted_append;
    bench_rbtree_fresh_insert_1k;
    bench_table_get_subtables;
    bench_table_get_flat;
    bench_interval_stab;
    bench_range_map_find;
    bench_range_map_split_heal;
    bench_covers;
    bench_subscription;
    bench_pattern_match;
    bench_codec_roundtrip;
  ]
  @ batch_tests

(** Measured ns/run per benchmark, in declaration order ([None] when the
    OLS fit fails). *)
let run () =
  (* PEQUOD_MICRO_QUOTA (seconds per benchmark) lets CI run a smoke pass
     in a few seconds; unset keeps the full-fidelity default *)
  let quota =
    match Sys.getenv_opt "PEQUOD_MICRO_QUOTA" with
    | Some s -> ( match float_of_string_opt s with Some q when q > 0.0 -> q | _ -> 0.25)
    | None -> 0.25
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~kde:(Some 500) () in
  let instances = Instance.[ monotonic_clock ] in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.fold
        (fun name result acc ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> (name, Some est) :: acc
          | _ -> (name, None) :: acc)
        analyzed [])
    all_tests

(* A small canned engine workload (the paper's Twip shape) whose registry
   snapshot is embedded in BENCH_micro.json: the perf trajectory then
   carries op/maintenance counts alongside ns/run figures, so a regression
   can be attributed (more work? or slower work?). Deterministic, so the
   counts are comparable across runs. *)
let registry_snapshot () =
  let module Server = Pequod_core.Server in
  let s = Server.create () in
  Server.add_join_exn s "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>";
  for u = 0 to 19 do
    for v = 0 to 4 do
      Server.put s
        (Printf.sprintf "s|u%03d|u%03d" u ((u + v) mod 20))
        "1"
    done
  done;
  for p = 0 to 19 do
    for i = 0 to 9 do
      Server.put s (Printf.sprintf "p|u%03d|%010d" p i) (Printf.sprintf "post %d by %d" i p)
    done
  done;
  for u = 0 to 19 do
    ignore (Server.scan s ~lo:(Printf.sprintf "t|u%03d|" u) ~hi:(Printf.sprintf "t|u%03d}" u))
  done;
  for p = 0 to 19 do
    Server.put s (Printf.sprintf "p|u%03d|%010d" p 10) "fresh post"
  done;
  Obs.json_of_snapshot (Server.metrics_snapshot s)

(* ratios worth tracking as first-class numbers, recomputed from the
   measured results so the JSON carries the claim, not just the inputs *)
let derived_of ~cover_words ~subscription_words results =
  let find name = match List.assoc_opt name results with Some (Some v) -> Some v | _ -> None in
  (match (find put_seq_10k_sorted, find put_batch_10k_sorted) with
  | Some seq, Some batch when batch > 0.0 ->
    [ ("put_batch 10k sorted speedup", seq /. batch) ]
  | _ -> [])
  @ (match find covers_case with
    | Some ns -> [ ("cover materialize+teardown ns/cover", ns /. float_of_int cover_readers) ]
    | None -> [])
  @ [ ("cover materialize+teardown minor words/cover", cover_words);
      ("subscribe+check minor words/round", subscription_words) ]

(* provenance stamping (commit + ISO date + derived entries) is shared
   with BENCH_cluster.json through Benchstamp, so the files cannot
   drift in schema *)
let write_json ~path ?registry ~cover_words ~subscription_words results =
  Benchstamp.write_file ~path ~benchmark:"micro"
    ~derived:(derived_of ~cover_words ~subscription_words results)
    ([ ("unit", Benchstamp.String "ns/run");
       ( "results",
         Benchstamp.Obj
           (List.map
              (fun (name, est) ->
                (name, match est with Some v -> Benchstamp.Float v | None -> Benchstamp.Null))
              results) ) ]
    @ match registry with Some json -> [ ("registry", Benchstamp.Raw json) ] | None -> [])

let run_and_print () =
  let results = run () in
  let tbl =
    Tablefmt.create ~title:"Microbenchmarks (store primitives)"
      ~headers:[ "Benchmark"; "ns/run" ] ~aligns:[ Tablefmt.Left; Right ]
  in
  List.iter
    (fun (name, est) ->
      Tablefmt.add_row tbl
        [ name; (match est with Some v -> Tablefmt.fmt_float ~decimals:1 v | None -> "n/a") ])
    results;
  Tablefmt.print tbl;
  let cover_words = cover_minor_words () in
  (match List.assoc_opt covers_case results with
  | Some (Some ns) ->
    Printf.printf "covers: %.0f ns and %.0f minor words per cover materialized and torn down\n"
      (ns /. float_of_int cover_readers) cover_words
  | _ -> ());
  let subscription_words = subscription_minor_words () in
  (match List.assoc_opt subscription_case results with
  | Some (Some ns) ->
    Printf.printf "subscriptions: %.0f ns and %.0f minor words per subscribe + check round\n" ns
      subscription_words
  | _ -> ());
  let json = "BENCH_micro.json" in
  write_json ~path:json ~registry:(registry_snapshot ()) ~cover_words ~subscription_words results;
  Printf.printf "(wrote %s)\n" json
