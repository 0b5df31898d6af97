(* The distributed protocol (§2.4) on the shipped request cores, wired
   through the hub: fetch and subscribe, pushed updates, eventual
   consistency, replicas on two computes, assembly across homes, and the
   hub's traffic counts. The fuzzer's spread variants run the same
   cluster shape against the oracle. *)

module Hub = Pequod_hub.Hub
module Node = Pequod_server_lib.Node
module Directory = Pequod_server_lib.Directory
module Server = Pequod_core.Server
module Message = Pequod_proto.Message
module F = Pequod_fuzz.Fuzz

let check_int = Alcotest.(check int)
let check_pairs = Alcotest.(check (list (pair string string)))

(* cores 0 and 1 are homes, users before "c" at 0; 2 and 3 are computes *)
let make () =
  Hub.cluster ~clock:(ref 0.0) ~homes:2 ~computes:2 ~cuts:[ "c" ] ~joins:[ F.timeline_join ]

let home hub key =
  int_of_string (Option.get (Directory.write_home (Node.entries hub.Hub.nodes.(0)) ~self:"" ~key))

let put hub key value = ignore (Hub.call hub (home hub key) (Put (key, value)))
let scan_req user = Message.Scan { lo = "t|" ^ user ^ "|"; hi = "t|" ^ user ^ "}" }

let timeline hub c user =
  match Hub.call hub c (scan_req user) with
  | Message.Pairs pairs -> pairs
  | _ -> Alcotest.fail "the scan failed"

let counter hub i name = Server.counter (Node.engine hub.Hub.nodes.(i)) name
let fetches hub = counter hub 0 "peer.fetch.in" + counter hub 1 "peer.fetch.in"

let seeded () =
  let hub = make () in
  put hub "s|ann|bob" "1";
  put hub "p|bob|0100" "first";
  hub

let test_fetch_and_compute () =
  let hub = seeded () in
  check_pairs "computed remotely" [ ("t|ann|0100|bob", "first") ] (timeline hub 2 "ann");
  Alcotest.(check bool) "fetched" true (fetches hub > 0)

let test_push_notifications () =
  let hub = seeded () in
  ignore (timeline hub 2 "ann");
  let rounds = fetches hub in
  put hub "p|bob|0200" "second";
  check_pairs "pushed update arrived"
    [ ("t|ann|0100|bob", "first"); ("t|ann|0200|bob", "second") ]
    (timeline hub 2 "ann");
  check_int "no new fetch" rounds (fetches hub);
  check_int "one push" 1 (counter hub 2 "peer.notify.in")

let test_eventual_consistency () =
  let hub = seeded () in
  ignore (timeline hub 2 "ann");
  (* the home applies the write; its push is not delivered yet *)
  ignore (Hub.request hub (home hub "p|bob|0200") (Put ("p|bob|0200", "second")));
  (match !(Hub.request hub 2 (scan_req "ann")) with
  | Some (Message.Pairs pairs) ->
    check_pairs "stale read before delivery" [ ("t|ann|0100|bob", "first") ] pairs
  | _ -> Alcotest.fail "a warm scan answers at once");
  ignore (Hub.run hub ~budget:1_000 (fun () -> Hub.idle hub));
  check_pairs "fresh after delivery"
    [ ("t|ann|0100|bob", "first"); ("t|ann|0200|bob", "second") ]
    (timeline hub 2 "ann")

let test_replication () =
  (* §2.4: reads of popular data on several servers make incrementally
     maintained replicas *)
  let hub = seeded () in
  List.iter (fun c -> ignore (timeline hub c "ann")) [ 2; 3 ];
  let rounds = fetches hub in
  put hub "p|bob|0200" "second";
  List.iter
    (fun c ->
      check_pairs (Printf.sprintf "replica on core %d" c)
        [ ("t|ann|0100|bob", "first"); ("t|ann|0200|bob", "second") ]
        (timeline hub c "ann"))
    [ 2; 3 ];
  check_int "no new fetch" rounds (fetches hub)

let test_cross_home_assembly () =
  let hub = make () in
  List.iter (fun p -> put hub ("s|ann|" ^ p) "1") [ "bob"; "liz"; "jim" ];
  List.iter (fun (p, tm) -> put hub (Printf.sprintf "p|%s|%s" p tm) p)
    [ ("bob", "0100"); ("liz", "0200"); ("jim", "0300") ];
  check_pairs "assembled across homes"
    [ ("t|ann|0100|bob", "bob"); ("t|ann|0200|liz", "liz"); ("t|ann|0300|jim", "jim") ]
    (timeline hub 3 "ann");
  List.iter
    (fun i -> Alcotest.(check bool) (Printf.sprintf "home %d fetched from" i) true
        (counter hub i "peer.fetch.in" > 0))
    [ 0; 1 ]

let test_work_accounting () =
  let hub = seeded () in
  Hub.reset_counts hub;
  let traffic () =
    List.fold_left (fun (m, b) l -> (m + l.Hub.msgs, b + l.Hub.bytes)) (0, 0) (Hub.links hub)
  in
  ignore (timeline hub 2 "ann");
  let msgs, bytes = traffic () in
  Alcotest.(check bool) "fetches counted" true (msgs > 0 && bytes > msgs);
  Alcotest.(check bool) "client bytes counted" true (hub.Hub.client_bytes > 0);
  check_int "the compute took the request and the answers" (1 + (msgs / 2)) hub.Hub.handled.(2);
  ignore (timeline hub 2 "ann");
  check_int "a warm read sends nothing" msgs (fst (traffic ()));
  Alcotest.(check bool) "memory accounted" true
    (Server.memory_bytes (Node.engine hub.Hub.nodes.(2)) > 0)

(* After the network quiesces every compute answers like one server
   holding the same data: one twip case per spread variant against the
   oracle (the fuzz sweep runs many) *)
let test_converges () =
  let scenario = Option.get (F.find_scenario "twip") in
  let ops = F.gen_ops scenario (Rng.create (F.derive_seed 11 0)) ~max_ops:40 in
  List.iter
    (fun name ->
      match F.run_case ~inspect:ignore scenario (Option.get (F.find_variant name)) ops with
      | Ok () -> ()
      | Error f -> Alcotest.failf "%s: step %d: %s" name f.F.f_step f.F.f_reason)
    [ "spread"; "spread-evict" ]

let () =
  Alcotest.run "hub"
    [
      ( "cluster",
        [
          Alcotest.test_case "fetch and compute" `Quick test_fetch_and_compute;
          Alcotest.test_case "push notifications" `Quick test_push_notifications;
          Alcotest.test_case "eventual consistency" `Quick test_eventual_consistency;
          Alcotest.test_case "replication" `Quick test_replication;
          Alcotest.test_case "cross-home assembly" `Quick test_cross_home_assembly;
          Alcotest.test_case "work accounting" `Quick test_work_accounting;
        ] );
      ( "cluster-props",
        [ Alcotest.test_case "cluster converges to single-server semantics" `Quick test_converges ]
      );
    ]
