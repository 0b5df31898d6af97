(* Integration tests for the network server: the select event loop is
   driven manually with step(), with real TCP sockets in one process. *)

module Net_server = Pequod_server_lib.Net_server
module Net_client = Pequod_server_lib.Net_client
module Remote = Pequod_server_lib.Remote
module Server = Pequod_core.Server
module Message = Pequod_proto.Message
module Frame = Pequod_proto.Frame

let check_bool = Alcotest.(check bool)

(* v3 write acks carry a stamp vector instead of a bare Done *)
let is_ack = function Message.Stamps _ | Message.Done -> true | _ -> false

let timeline_join = "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

let with_server ~joins f =
  let t = Net_server.create ~port:0 ~joins ~memory_limit:None () in
  Fun.protect ~finally:(fun () -> Net_server.stop t) (fun () -> f t)

let connect t =
  let port = Net_server.port t in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* send a request, pump the server loop, read the response *)
let rpc t fd req =
  let wire = Frame.encode (Message.encode_request req) in
  let sent = ref 0 in
  while !sent < String.length wire do
    sent := !sent + Unix.write_substring fd wire !sent (String.length wire - !sent)
  done;
  let decoder = Frame.decoder () in
  let buf = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec read_frame () =
    if Unix.gettimeofday () > deadline then failwith "rpc timeout";
    Net_server.step ~timeout:0.01 t;
    match Unix.select [ fd ] [] [] 0.01 with
    | [ _ ], _, _ -> (
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      if n = 0 then failwith "connection closed";
      match Frame.feed decoder (Bytes.sub_string buf 0 n) with
      | frame :: _ -> Message.decode_response frame
      | [] -> read_frame ())
    | _ -> read_frame ()
  in
  read_frame ()

let test_basic_session () =
  with_server ~joins:[ timeline_join ] (fun t ->
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (match rpc t fd (Message.Hello { version = Message.protocol_version }) with
          | Message.Welcome { version } when version = Message.protocol_version -> ()
          | _ -> Alcotest.fail "handshake over TCP");
          (match rpc t fd (Message.Hello { version = Message.protocol_version + 7 }) with
          | Message.Error _ -> ()
          | _ -> Alcotest.fail "version mismatch accepted over TCP");
          check_bool "put sub" true (is_ack (rpc t fd (Message.Put ("s|ann|bob", "1"))));
          check_bool "put post" true
            (is_ack (rpc t fd (Message.Put ("p|bob|0000000100", "hi"))));
          (match rpc t fd (Message.Scan { lo = "t|ann|"; hi = "t|ann}" }) with
          | Message.Pairs [ ("t|ann|0000000100|bob", "hi") ] -> ()
          | _ -> Alcotest.fail "timeline over TCP");
          (match rpc t fd (Message.Get "t|ann|0000000100|bob") with
          | Message.Value (Some "hi") -> ()
          | _ -> Alcotest.fail "get over TCP");
          match rpc t fd Message.Stats_full with
          | Message.Metrics metrics -> check_bool "metrics" true (metrics <> [])
          | _ -> Alcotest.fail "stats_full over TCP"))

(* One-way requests produce no response frame: a Notify_put followed by a
   Get must answer the Get first (and only) — the notify is applied, not
   acknowledged. *)
let test_oneway_notify () =
  with_server ~joins:[] (fun t ->
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let wire =
            Frame.encode (Message.encode_request (Message.Notify_put ("k|a", "pushed")))
            ^ Frame.encode (Message.encode_request (Message.Get "k|a"))
          in
          let sent = ref 0 in
          while !sent < String.length wire do
            sent := !sent + Unix.write_substring fd wire !sent (String.length wire - !sent)
          done;
          let decoder = Frame.decoder () in
          let buf = Bytes.create 4096 in
          let deadline = Unix.gettimeofday () +. 5.0 in
          let responses = ref [] in
          while !responses = [] do
            if Unix.gettimeofday () > deadline then failwith "timeout";
            Net_server.step ~timeout:0.01 t;
            match Unix.select [ fd ] [] [] 0.01 with
            | [ _ ], _, _ ->
              let n = Unix.read fd buf 0 (Bytes.length buf) in
              if n = 0 then failwith "connection closed";
              List.iter
                (fun frame -> responses := Message.decode_response frame :: !responses)
                (Frame.feed decoder (Bytes.sub_string buf 0 n))
            | _ -> ()
          done;
          match List.rev !responses with
          | [ Message.Value (Some "pushed") ] -> ()
          | _ -> Alcotest.fail "notify must be one-way and applied before the get"))

let test_runtime_join_installation () =
  with_server ~joins:[] (fun t ->
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          check_bool "add join" true
            (rpc t fd (Message.Add_join "m|<x> = copy src|<x>") = Message.Done);
          (match rpc t fd (Message.Add_join "nonsense") with
          | Message.Error _ -> ()
          | _ -> Alcotest.fail "bad join accepted");
          check_bool "put" true (is_ack (rpc t fd (Message.Put ("src|a", "v"))));
          match rpc t fd (Message.Get "m|a") with
          | Message.Value (Some "v") -> ()
          | _ -> Alcotest.fail "runtime join not applied"))

let test_two_clients () =
  with_server ~joins:[ timeline_join ] (fun t ->
      let fd1 = connect t in
      let fd2 = connect t in
      Fun.protect
        ~finally:(fun () ->
          Unix.close fd1;
          Unix.close fd2)
        (fun () ->
          check_bool "c1 put" true (is_ack (rpc t fd1 (Message.Put ("s|ann|bob", "1"))));
          check_bool "c2 put" true
            (is_ack (rpc t fd2 (Message.Put ("p|bob|0000000001", "x"))));
          (* each client sees the other's writes *)
          match rpc t fd1 (Message.Scan { lo = "t|ann|"; hi = "t|ann}" }) with
          | Message.Pairs [ ("t|ann|0000000001|bob", "x") ] -> ()
          | _ -> Alcotest.fail "cross-client visibility"))

let test_garbage_input () =
  with_server ~joins:[] (fun t ->
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (* a valid frame holding an invalid message must produce an error
             response, not kill the server *)
          let wire = Frame.encode "\xff\xff\xff" in
          ignore (Unix.write_substring fd wire 0 (String.length wire));
          let decoder = Frame.decoder () in
          let buf = Bytes.create 4096 in
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec read_frame () =
            if Unix.gettimeofday () > deadline then failwith "timeout";
            Net_server.step ~timeout:0.01 t;
            match Unix.select [ fd ] [] [] 0.01 with
            | [ _ ], _, _ -> (
              let n = Unix.read fd buf 0 (Bytes.length buf) in
              match Frame.feed decoder (Bytes.sub_string buf 0 n) with
              | frame :: _ -> Message.decode_response frame
              | [] -> read_frame ())
            | _ -> read_frame ()
          in
          (match read_frame () with
          | Message.Error _ -> ()
          | _ -> Alcotest.fail "expected protocol error");
          (* and the connection still works afterwards *)
          check_bool "still alive" true (is_ack (rpc t fd (Message.Put ("k|a", "v"))))))

let test_put_batch_pipelined () =
  with_server ~joins:[ timeline_join ] (fun t ->
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (* two batch frames written back-to-back: the server answers both
             from one read with one buffered write, and the batch's puts
             fire the timeline updater like sequential puts would *)
          let reqs =
            [
              Message.Put_batch [ ("s|ann|bob", "1"); ("p|bob|0000000200", "b") ];
              Message.Put_batch [ ("p|bob|0000000100", "a") ];
            ]
          in
          let wire =
            String.concat "" (List.map (fun r -> Frame.encode (Message.encode_request r)) reqs)
          in
          let sent = ref 0 in
          while !sent < String.length wire do
            sent := !sent + Unix.write_substring fd wire !sent (String.length wire - !sent)
          done;
          let decoder = Frame.decoder () in
          let buf = Bytes.create 65536 in
          let deadline = Unix.gettimeofday () +. 5.0 in
          let responses = ref [] in
          while List.length !responses < 2 do
            if Unix.gettimeofday () > deadline then failwith "pipeline timeout";
            Net_server.step ~timeout:0.01 t;
            match Unix.select [ fd ] [] [] 0.01 with
            | [ _ ], _, _ ->
              let n = Unix.read fd buf 0 (Bytes.length buf) in
              if n = 0 then failwith "connection closed";
              List.iter
                (fun frame -> responses := Message.decode_response frame :: !responses)
                (Frame.feed decoder (Bytes.sub_string buf 0 n))
            | _ -> ()
          done;
          check_bool "both batches acknowledged" true (List.for_all is_ack !responses);
          match rpc t fd (Message.Scan { lo = "t|ann|"; hi = "t|ann}" }) with
          | Message.Pairs [ ("t|ann|0000000100|bob", "a"); ("t|ann|0000000200|bob", "b") ] -> ()
          | _ -> Alcotest.fail "timeline after pipelined batches"))

(* A push-mode client (handshake:false) never blocks on the Welcome:
   its posts are applied while call/pipeline are rejected outright. The
   server's own notification pushes rely on this to stay deadlock-free. *)
let test_push_mode_client () =
  with_server ~joins:[] (fun t ->
      let client =
        Net_client.create ~handshake:false ~host:"127.0.0.1" ~port:(Net_server.port t) ()
      in
      Fun.protect
        ~finally:(fun () -> Net_client.close client)
        (fun () ->
          (match Net_client.call client (Message.Get "k|a") with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "call on a push-mode client must be rejected");
          (match Net_client.pipeline client [ Message.Get "k|a" ] with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "pipeline on a push-mode client must be rejected");
          let posted k v =
            Net_client.post client (Message.Notify_put (k, v));
            let deadline = Unix.gettimeofday () +. 5.0 in
            while Server.get (Net_server.engine t) k <> Some v do
              if Unix.gettimeofday () > deadline then Alcotest.failf "push of %s not applied" k;
              Net_server.step ~timeout:0.01 t
            done
          in
          posted "k|a" "pushed";
          (* the second post opportunistically drains the buffered
             Welcome; the connection keeps working *)
          posted "k|b" "again"))

(* Refetching the same range as the same subscriber must reuse the live
   subscription entry, not stack a duplicate (finding: unbounded subs
   growth under eviction-driven refetch). Sub_check reports the table. *)
let test_fetch_dedup () =
  with_server ~joins:[] (fun t ->
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (* populate before subscribing: later writes in the range would
             trigger a real push to the (unreachable) subscriber address *)
          check_bool "seed put" true (is_ack (rpc t fd (Message.Put ("p|a|1", "v"))));
          let fetch () =
            rpc t fd (Message.Fetch { table = "p"; lo = "p|"; hi = "p}"; subscriber = "198.51.100.9:9" })
          in
          (match fetch () with
          | Message.Subscribed { pairs = [ ("p|a|1", "v") ]; _ } -> ()
          | _ -> Alcotest.fail "first fetch");
          (match fetch () with
          | Message.Subscribed { pairs = [ ("p|a|1", "v") ]; _ } -> ()
          | _ -> Alcotest.fail "refetch");
          (match rpc t fd (Message.Sub_check { subscriber = "198.51.100.9:9" }) with
          | Message.Sub_ranges [ ("p", "p|", "p}") ] -> ()
          | Message.Sub_ranges ranges ->
            Alcotest.failf "expected one deduplicated subscription, got %d" (List.length ranges)
          | _ -> Alcotest.fail "sub_check response");
          (* an anonymous fetch (empty subscriber) installs nothing *)
          (match rpc t fd (Message.Fetch { table = "p"; lo = "p|"; hi = "p}"; subscriber = "" }) with
          | Message.Subscribed _ -> ()
          | _ -> Alcotest.fail "anonymous fetch");
          match rpc t fd (Message.Sub_check { subscriber = "" }) with
          | Message.Sub_ranges [] -> ()
          | _ -> Alcotest.fail "anonymous fetch must not subscribe"))

(* Route-coverage planning: unrouted tables stay local, partial route
   coverage is a surfaced gap (never silently present-and-empty), and
   fetch clamps carry only the remotely-owned intersections. *)
let test_remote_plan () =
  let route table lo hi addr = { Remote.r_table = table; r_lo = lo; r_hi = hi; r_addr = addr } in
  (* "*" is the shard layer's component-space wildcard: a spec's
     key-space bounds must never be read as one *)
  List.iter
    (fun spec ->
      match Remote.routes_of_specs ~peers:[] [ "s"; spec ] with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S must be rejected" spec)
    [ "*"; "*@127.0.0.1:1"; "*:a:b@127.0.0.1:1" ];
  let split =
    [ route "p" "p|" "p|m" (Some "h1:1"); route "p" "p|m" "p}" (Some "h2:1") ]
  in
  (match Remote.plan ~routes:split ~table:"q" ~lo:"q|" ~hi:"q}" with
  | `Unrouted -> ()
  | _ -> Alcotest.fail "unrouted table");
  (match Remote.plan ~routes:split ~table:"p" ~lo:"p|a" ~hi:"p|z" with
  | `Fetch [ (r1, "p|a", "p|m"); (r2, "p|m", "p|z") ]
    when r1.Remote.r_addr = Some "h1:1" && r2.Remote.r_addr = Some "h2:1" ->
    ()
  | _ -> Alcotest.fail "split fetch clamps");
  let gappy = [ route "p" "p|" "p|m" (Some "h1:1"); route "p" "p|n" "p}" (Some "h2:1") ] in
  (match Remote.plan ~routes:gappy ~table:"p" ~lo:"p|a" ~hi:"p|z" with
  | `Gap -> ()
  | _ -> Alcotest.fail "uncovered middle must be a gap");
  (match Remote.plan ~routes:gappy ~table:"p" ~lo:"p|a" ~hi:"p|b" with
  | `Fetch [ (_, "p|a", "p|b") ] -> ()
  | _ -> Alcotest.fail "fully covered prefix");
  (* a locally-owned route covers its part but yields no clamp *)
  let mixed = [ route "p" "p|" "p|m" None; route "p" "p|m" "p}" (Some "h2:1") ] in
  match Remote.plan ~routes:mixed ~table:"p" ~lo:"p|a" ~hi:"p|z" with
  | `Fetch [ (r, "p|m", "p|z") ] when r.Remote.r_addr = Some "h2:1" -> ()
  | _ -> Alcotest.fail "local coverage must not be fetched"

let () =
  Alcotest.run "net"
    [
      ( "tcp-server",
        [
          Alcotest.test_case "basic session" `Quick test_basic_session;
          Alcotest.test_case "one-way notify" `Quick test_oneway_notify;
          Alcotest.test_case "runtime joins" `Quick test_runtime_join_installation;
          Alcotest.test_case "two clients" `Quick test_two_clients;
          Alcotest.test_case "garbage input" `Quick test_garbage_input;
          Alcotest.test_case "put_batch pipelined" `Quick test_put_batch_pipelined;
          Alcotest.test_case "push-mode client" `Quick test_push_mode_client;
          Alcotest.test_case "fetch dedup" `Quick test_fetch_dedup;
        ] );
      ("routes", [ Alcotest.test_case "plan coverage" `Quick test_remote_plan ]);
    ]
