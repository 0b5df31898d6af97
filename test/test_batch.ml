(* Batched-write equivalence: Server.put_batch is specified as
   byte-identical to the same puts applied sequentially in ascending key
   order (stable, so the last duplicate wins). This suite replays one
   deterministic mixed workload through both paths under every
   optimization-toggle variant and compares full store transcripts, and
   checks the scan [?limit] contract and the fuzzer's batch generator. *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Fuzz = Pequod_fuzz.Fuzz

let check_bool = Test_util.check_bool
let check_int = Test_util.check_int

let timeline_join = "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
let karma_join = "karma|<author> = count vote|<author>|<id>|<voter>"

(* ------------------------------------------------------------------ *)
(* put_batch == sequential puts, across config variants                *)

type wop =
  | Batch of (string * string) list
  | Single of string * string
  | Del of string
  | Read of string * string (* force join materialization mid-stream *)

let users = [| "ann"; "bob"; "cal" |]
let tm n = Strkey.encode_int ~width:4 n

(* deterministic workload: batches mix subscription, post and vote keys
   (spanning tables), some repeat a key, reads interleave so updaters are
   live when later batches arrive *)
let workload =
  let rng = Rng.create 0xBA7C4 in
  let sub () = Printf.sprintf "s|%s|%s" (Rng.pick rng users) (Rng.pick rng users) in
  let post () = Printf.sprintf "p|%s|%s" (Rng.pick rng users) (tm (Rng.int rng 30)) in
  let vote () =
    Printf.sprintf "vote|%s|%s|%s" (Rng.pick rng users)
      (Rng.pick rng [| "01"; "02" |])
      (Rng.pick rng users)
  in
  let pair () =
    match Rng.int rng 3 with
    | 0 -> (sub (), "1")
    | 1 -> (post (), Printf.sprintf "m%d" (Rng.int rng 100))
    | _ -> (vote (), "1")
  in
  List.init 400 (fun _ ->
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 ->
        let n = 1 + Rng.int rng 8 in
        let pairs = List.init n (fun _ -> pair ()) in
        let pairs =
          (* repeat a key with a different value: last write must win *)
          if n >= 2 && Rng.int rng 3 = 0 then
            pairs @ [ (fst (List.nth pairs 0), snd (List.nth pairs (n - 1))) ]
          else pairs
        in
        Batch pairs
      | 4 | 5 | 6 ->
        let k, v = pair () in
        Single (k, v)
      | 7 ->
        let k, _ = pair () in
        Del k
      | _ -> (
        match Rng.int rng 3 with
        | 0 -> Read ("t|", "t}")
        | 1 -> Read ("karma|", "karma}")
        | _ -> Read ("", "\xfe")))

(* expand a batch to the sequential puts it is documented to equal *)
let expand pairs = List.stable_sort (fun (a, _) (b, _) -> String.compare a b) pairs

let transcript ~joins ~batched config ops =
  let server = Server.create ~config () in
  List.iter (Server.add_join_exn server) joins;
  let buf = Buffer.create 8192 in
  List.iter
    (fun op ->
      (match op with
      | Batch pairs ->
        if batched then Server.put_batch server pairs
        else List.iter (fun (k, v) -> Server.put server k v) (expand pairs)
      | Single (k, v) -> Server.put server k v
      | Del k -> Server.remove server k
      | Read (lo, hi) ->
        List.iter (fun (k, v) -> Printf.bprintf buf "%S=%S\n" k v) (Server.scan server ~lo ~hi));
      Server.check_invariants server)
    ops;
  (* final resident state, byte for byte *)
  Server.iter_pairs server (fun k v -> Printf.bprintf buf "%S=%S\n" k v);
  Printf.bprintf buf "size=%d memory=%d\n" (Server.size server) (Server.memory_bytes server);
  (* the same firings, not just the same outcome *)
  Printf.bprintf buf "updater.run=%d\n" (Server.counter server "updater.run");
  Buffer.contents buf

let variants =
  [
    ("default", fun _ -> ());
    ("eager checks", fun c -> c.Config.lazy_checks <- false);
    ("no output hints", fun c -> c.Config.output_hints <- false);
    ( "no sharing, no combining",
      fun c ->
        c.Config.value_sharing <- false;
        c.Config.combine_updaters <- false );
    ( "bare engine",
      fun c ->
        c.Config.output_hints <- false;
        c.Config.lazy_checks <- false;
        c.Config.value_sharing <- false;
        c.Config.combine_updaters <- false );
  ]

let check_equivalent ~joins ops =
  List.iter
    (fun (name, tweak) ->
      let make () =
        let c = Config.default () in
        c.Config.now <- (fun () -> 1_000_000.0);
        tweak c;
        c
      in
      let b = transcript ~joins ~batched:true (make ()) ops in
      let s = transcript ~joins ~batched:false (make ()) ops in
      if b <> s then Alcotest.failf "variant %S: batched and sequential transcripts differ" name)
    variants

let test_equivalence () = check_equivalent ~joins:[ timeline_join; karma_join ] workload

(* Batches shaped like a subscription push reaching a compute server: a
   few keys scattered over tables where hundreds of timelines are
   materialized, so every key stabs one of hundreds of disjoint
   updaters. The [x|] join keeps its check source ([x|a|]) and value
   source ([x|b|]) in one table, so a subscription and a post by the
   followed user land in the same batch run with the subscription first:
   under eager checks, firing the subscription installs the updater the
   post must then fire. *)
let push_users = 300
let user i = Printf.sprintf "u%03d" i
let mirror_join = "f|<user>|<time>|<poster> = check x|a|<user>|<poster> copy x|b|<poster>|<time>"

let push_workload =
  let rng = Rng.create 0x9054 in
  let clock = ref 0 in
  let post tbl poster =
    incr clock;
    (Printf.sprintf "%s|%s|%s" tbl poster (tm !clock), Printf.sprintf "m%d" !clock)
  in
  let someone () = user (Rng.int rng push_users) in
  let preload =
    List.concat
      (List.init push_users (fun u ->
           let follows = List.init 3 (fun _ -> someone ()) in
           List.concat_map
             (fun v ->
               [ (Printf.sprintf "s|%s|%s" (user u) v, "1");
                 (Printf.sprintf "x|a|%s|%s" (user u) v, "1") ])
             follows
           @ [ post "p" (user u); post "x|b" (user u) ]))
  in
  let materialize u =
    [ Read (Printf.sprintf "t|%s|" u, Printf.sprintf "t|%s}" u);
      Read (Printf.sprintf "f|%s|" u, Printf.sprintf "f|%s}" u) ]
  in
  let pushes =
    List.init 300 (fun _ ->
        match Rng.int rng 8 with
        | 0 -> materialize (someone ())
        | 1 -> [ Del (Printf.sprintf "x|a|%s|%s" (someone ()) (someone ())) ]
        | _ ->
          (* 2-8 keys: a follow item is two, the follow and the
             followee's post *)
          let item () =
            match Rng.int rng 5 with
            | 0 -> [ post "p" (someone ()) ]
            | 1 -> [ post "x|b" (someone ()) ]
            | 2 -> [ (Printf.sprintf "s|%s|%s" (someone ()) (someone ()), "1") ]
            | _ ->
              let v = someone () in
              [ (Printf.sprintf "x|a|%s|%s" (someone ()) v, "1"); post "x|b" v ]
          in
          let n = 2 + Rng.int rng 6 in
          let rec fill acc = if List.length acc >= n then acc else fill (acc @ item ()) in
          [ Batch (fill []) ])
  in
  (Batch preload :: List.concat_map materialize (List.init push_users user))
  @ List.concat pushes
  @ [ Read ("", "\xfe") ]

let test_push_shaped () =
  check_equivalent ~joins:[ timeline_join; mirror_join ] push_workload

(* ------------------------------------------------------------------ *)
(* scan ?limit                                                         *)

let test_scan_limit () =
  let config = Config.default () in
  config.Config.now <- (fun () -> 1_000_000.0);
  let server = Server.create ~config () in
  Server.add_join_exn server timeline_join;
  Server.put_batch server
    [
      ("s|ann|bob", "1"); ("s|ann|cal", "1");
      ("p|bob|0003", "b3"); ("p|bob|0001", "b1");
      ("p|cal|0002", "c2"); ("p|cal|0004", "c4");
    ];
  let full = Server.scan server ~lo:"t|ann|" ~hi:"t|ann}" in
  check_int "four timeline entries" 4 (List.length full);
  let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> [] in
  for n = 0 to 5 do
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "limit %d is a prefix" n)
      (take n full)
      (Server.scan ~limit:n server ~lo:"t|ann|" ~hi:"t|ann}")
  done;
  (* cold cache: the limited scan still materializes the join correctly *)
  let cold = Server.create ~config () in
  Server.add_join_exn cold timeline_join;
  Server.put_batch cold
    [ ("s|ann|bob", "1"); ("p|bob|0001", "b1"); ("p|bob|0002", "b2") ];
  Alcotest.(check (list (pair string string)))
    "cold limited scan" [ ("t|ann|0001|bob", "b1") ]
    (Server.scan ~limit:1 cold ~lo:"t|ann|" ~hi:"t|ann}");
  match Server.scan_result ~limit:2 cold ~lo:"t|ann|" ~hi:"t|ann}" with
  | `Ok [ ("t|ann|0001|bob", "b1"); ("t|ann|0002|bob", "b2") ] -> ()
  | _ -> Alcotest.fail "scan_result limit"

(* ------------------------------------------------------------------ *)
(* the fuzzer's batch generator really exercises the interesting cases *)

let test_fuzz_batches () =
  let total = ref 0 and batches = ref 0 and dups = ref 0 and span = ref 0 in
  Array.iteri
    (fun i sc ->
      let rng = Rng.create (Fuzz.derive_seed 42 i) in
      List.iter
        (fun op ->
          incr total;
          match op with
          | Fuzz.Put_batch pairs ->
            incr batches;
            (* the repro line codec must round-trip every batch *)
            let line = Fuzz.op_to_line op in
            (match Fuzz.op_of_line line with
            | Some (Fuzz.Put_batch p) when p = pairs -> ()
            | _ -> Alcotest.failf "repro roundtrip failed: %s" line);
            let keys = List.map fst pairs in
            if List.length keys <> List.length (List.sort_uniq compare keys) then incr dups;
            let table k =
              match String.index_opt k '|' with Some j -> String.sub k 0 j | None -> k
            in
            if List.length (List.sort_uniq compare (List.map table keys)) > 1 then incr span
          | _ -> ())
        (Fuzz.gen_ops sc rng ~max_ops:400))
    Fuzz.scenarios;
  check_bool "batches generated" true (!batches > 20);
  check_bool "some batches repeat a key" true (!dups > 0);
  check_bool "some batches span tables" true (!span > 0)

let () =
  Alcotest.run "batch"
    [
      ( "put_batch",
        [
          Alcotest.test_case "equivalent to sequential puts" `Quick test_equivalence;
          Alcotest.test_case "push-shaped batches" `Quick test_push_shaped;
          Alcotest.test_case "scan limit" `Quick test_scan_limit;
          Alcotest.test_case "fuzz generator coverage" `Quick test_fuzz_batches;
        ] );
    ]
