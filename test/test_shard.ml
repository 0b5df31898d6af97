(* Shard-per-core battery (ISSUE 7): equivalence of a 1-shard and an
   N-shard server over real TCP under an identical seeded transcript,
   codec torture under both poller backends, and an fd-scale run past
   the select limit.

   The sharded server runs its engines in real Domains (one per shard
   plus the acceptor), so these tests exercise the actual concurrency:
   cross-shard routing, the intra-process fetch+subscribe path, and the
   asynchronous notify pushes — the transcript comparisons wait for
   convergence with a bounded retry instead of assuming synchrony. *)

module Shard = Pequod_server_lib.Shard
module Net_server = Pequod_server_lib.Net_server
module Net_client = Pequod_server_lib.Net_client
module Session = Pequod_server_lib.Session
module Server = Pequod_core.Server
module Message = Pequod_proto.Message
module Frame = Pequod_proto.Frame
(* pequod_obs is unwrapped: the registry module is just [Obs] *)

let check_bool = Alcotest.(check bool)

(* v3 write acks carry a stamp vector instead of a bare Done *)
let is_ack = function Message.Stamps _ | Message.Done -> true | _ -> false

let timeline_join = "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

(* ------------------------------------------------------------------ *)
(* Transcript equivalence                                              *)

(* splitmix-style generator: the transcript is a pure function of the
   seed, so the 1-shard and 3-shard runs replay byte-identical input *)
let rng seed =
  let st = ref (seed land 0x3FFFFFFF) in
  fun n ->
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    (!st lsr 7) mod n

type top =
  | T_put of string * string
  | T_batch of (string * string) list
  | T_remove of string
  | T_scan of string * string

(* users straddle the cut points ("b", "d") of the 3-shard server:
   ann -> shard 0, bob/cal -> shard 1, dee/eve -> shard 2. A timeline
   entry t|u|tm|p joins s|u|p (owned by u's shard) with p|p|tm (owned
   by p's shard), so most timelines cross shards. *)
let users = [| "ann"; "bob"; "cal"; "dee"; "eve" |]

let gen_transcript seed n =
  let r = rng seed in
  let user () = users.(r (Array.length users)) in
  let tm () = Printf.sprintf "%04d" (r 30) in
  let post u = ("p|" ^ u ^ "|" ^ tm (), Printf.sprintf "v%d" (r 1000)) in
  List.init n (fun _ ->
      match r 10 with
      | 0 | 1 -> T_put ("s|" ^ user () ^ "|" ^ user (), "1")
      | 2 | 3 ->
        let k, v = post (user ()) in
        T_put (k, v)
      | 4 -> T_batch (List.init (1 + r 5) (fun _ -> post (user ())))
      | 5 ->
        let k, _ = post (user ()) in
        T_remove k
      | 6 | 7 ->
        let u = user () in
        T_scan ("t|" ^ u ^ "|", "t|" ^ u ^ "}")
      | 8 -> T_scan ("p|", "p}") (* whole-table: scattered across slices *)
      | _ -> T_scan ("", "\xfe") (* cross-table scatter *))

let scan_of client lo hi =
  match Net_client.call client (Message.Scan { lo; hi }) with
  | Message.Pairs pairs -> pairs
  | Message.Error m -> Alcotest.failf "scan [%S, %S): %s" lo hi m
  | _ -> Alcotest.fail "unexpected scan response"

(* replay [ops]; [want] (from the reference run) makes each scan wait
   for convergence: the sharded server acknowledges a write once the
   owner applied it, but subscription pushes to sibling shards are
   asynchronous. Returns the scan results in transcript order. *)
let replay ?want client issued ops =
  let scans = ref [] in
  List.iteri
    (fun i op ->
      match op with
      | T_put (k, v) ->
        incr issued;
        check_bool "put" true (is_ack (Net_client.call client (Message.Put (k, v))))
      | T_batch pairs ->
        incr issued;
        check_bool "batch" true (is_ack (Net_client.call client (Message.Put_batch pairs)))
      | T_remove k ->
        incr issued;
        check_bool "remove" true (is_ack (Net_client.call client (Message.Remove k)))
      | T_scan (lo, hi) ->
        let reference = Option.map (fun w -> List.assoc i w) want in
        let deadline = Unix.gettimeofday () +. 5.0 in
        let rec converged () =
          incr issued;
          let got = scan_of client lo hi in
          match reference with
          | Some w when got <> w && Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.02;
            converged ()
          | _ -> got
        in
        scans := (i, converged ()) :: !scans)
    ops;
  List.rev !scans

let counter_value metrics name =
  match List.assoc_opt name metrics with
  | Some (Obs.Counter n) -> n
  | Some (Obs.Gauge n) -> n
  | _ -> Alcotest.failf "metric %s missing" name

let with_shard_server ?cuts ~shards f =
  let t =
    Shard.create ?cuts ~port:0 ~joins:[ timeline_join ] ~memory_limit:None ~shards ()
  in
  Shard.start t;
  let client = Net_client.create (Printf.sprintf "127.0.0.1:%d" (Shard.port t)) in
  Fun.protect
    ~finally:(fun () ->
      Net_client.close client;
      Shard.stop t)
    (fun () -> f t client)

let test_transcript_equivalence () =
  let ops = gen_transcript 0xfeed 160 in
  (* reference: the same public surface with a single engine *)
  let reference =
    with_shard_server ~shards:1 (fun _ client ->
        let issued = ref 0 in
        replay client issued ops)
  in
  check_bool "reference scans" true (reference <> []);
  with_shard_server ~cuts:[ "b"; "d" ] ~shards:3 (fun t client ->
      let issued = ref 1 (* the client handshake Hello *) in
      let sharded = replay ~want:reference client issued ops in
      (* byte-identical scans, after convergence *)
      List.iter2
        (fun (i, want) (i', got) ->
          check_bool "scan index" true (i = i');
          if got <> want then
            Alcotest.failf "scan %d diverges: %d pairs vs %d reference" i
              (List.length got) (List.length want))
        reference sharded;
      (* conserved aggregate metrics: every sibling call one shard sent
         was received by a sibling, and the acceptor-handed requests the
         shards counted are exactly the requests this test issued *)
      incr issued;
      let metrics =
        match Net_client.call client Message.Stats_full with
        | Message.Metrics m -> m
        | _ -> Alcotest.fail "stats_full"
      in
      let out = counter_value metrics "shard.forward.out" in
      let inn = counter_value metrics "shard.forward.in" in
      if out <> inn then Alcotest.failf "forward.out %d <> forward.in %d" out inn;
      check_bool "forwards happened" true (out > 0);
      let client_ops = counter_value metrics "shard.client.ops" in
      if client_ops <> !issued then
        Alcotest.failf "shard.client.ops %d <> issued %d" client_ops !issued;
      (* per-shard breakdowns are present and sum to the totals *)
      let per_shard name =
        List.init (Shard.shards t) (fun i ->
            counter_value metrics (Printf.sprintf "shard.%d.%s" i name))
      in
      let sum l = List.fold_left ( + ) 0 l in
      check_bool "per-shard ops sum" true
        (sum (per_shard "ops") = counter_value metrics "shard.ops");
      check_bool "every shard served" true (List.for_all (fun n -> n > 0) (per_shard "ops"));
      (* engines are structurally sound after the storm (checked after
         stop in the finally would race the domains; stop first) *)
      Shard.stop t;
      List.iter Server.check_invariants (Shard.engines t))

(* writes through one shard's slice are visible through every route:
   the owner directly, a sibling via forward, and the public scan *)
let test_cross_shard_freshness () =
  with_shard_server ~cuts:[ "b"; "d" ] ~shards:3 (fun _ client ->
      check_bool "sub" true (is_ack (Net_client.call client (Message.Put ("s|ann|dee", "1"))));
      check_bool "post" true
        (is_ack (Net_client.call client (Message.Put ("p|dee|0042", "hello"))));
      (* ann (shard 0) follows dee (shard 2): the timeline join on ann's
         shard must fetch dee's posts across shards *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec wait () =
        match scan_of client "t|ann|" "t|ann}" with
        | [ ("t|ann|0042|dee", "hello") ] -> ()
        | _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.02;
          wait ()
        | got -> Alcotest.failf "cross-shard timeline: %d pairs" (List.length got)
      in
      wait ();
      (* a later post must arrive through the subscription push, not a
         refetch: write, then watch the already-materialized timeline *)
      check_bool "post2" true
        (is_ack (Net_client.call client (Message.Put ("p|dee|0043", "again"))));
      let rec wait2 () =
        match scan_of client "t|ann|" "t|ann}" with
        | [ _; ("t|ann|0043|dee", "again") ] -> ()
        | _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.02;
          wait2 ()
        | got -> Alcotest.failf "push freshness: %d pairs" (List.length got)
      in
      wait2 ())

(* A shard is a directory home whose address is in the same process:
   the server answers Dir_get with one wildcard entry per shard at epoch
   1, each homed at that shard's own port, and refuses to change it *)
let test_shard_directory () =
  with_shard_server ~cuts:[ "b"; "d" ] ~shards:3 (fun t client ->
      (match Net_client.call client Message.Dir_get with
      | Message.Dir_state { epoch = 1; entries } ->
        let want =
          List.map2
            (fun (lo, hi) port -> ("*", lo, hi, Printf.sprintf "127.0.0.1:%d" port))
            [ ("", "b"); ("b", "d"); ("d", "") ]
            (Shard.shard_ports t)
        in
        let got =
          List.map
            (fun (e : Message.dir_entry) -> (e.de_table, e.de_lo, e.de_hi, e.de_home))
            entries
        in
        check_bool "three wildcard entries naming the shard ports" true (got = want)
      | _ -> Alcotest.fail "Dir_get must answer the epoch-1 directory");
      (match
         Net_client.call client (Message.Dir_update { epoch = 2; entries = [] })
       with
      | Message.Error _ -> ()
      | _ -> Alcotest.fail "Dir_update on a shard must answer Error");
      match
        Net_client.call client
          (Message.Migrate { table = "p"; lo = "p|"; hi = "p|b"; dest = "127.0.0.1:9" })
      with
      | Message.Error _ -> ()
      | _ -> Alcotest.fail "Migrate on a shard must answer Error")

(* Stamped reads routed between shards: after writes through the public
   port, reads demanding the ack vector — a point read of a key a
   sibling homes, a timeline homed on one sibling whose source another
   homes, and a p| range spanning every slice — see the writes and
   are never Stale *)
let test_stamped_reads () =
  with_shard_server ~cuts:[ "b"; "d" ] ~shards:3 (fun _ client ->
      let session = Session.create client in
      Session.put session "s|dee|ann" "1";
      Session.put session "p|ann|0042" "hello";
      Session.put session "p|cal|0007" "hi";
      let min = Session.stamp session in
      check_bool "acks carry stamps" true (min <> []);
      let call req =
        match Net_client.call client req with
        | Message.Stale _ -> Alcotest.fail "stamped read answered Stale"
        | Message.Error m -> Alcotest.failf "stamped read failed: %s" m
        | resp -> resp
      in
      check_bool "Get_at on a sibling's key" true
        (call (Message.Get_at { key = "p|cal|0007"; min }) = Message.Value (Some "hi"));
      check_bool "Scan_at on a one-slice timeline" true
        (call (Message.Scan_at { lo = "t|dee|"; hi = "t|dee}"; min })
        = Message.Pairs [ ("t|dee|0042|ann", "hello") ]);
      check_bool "Scan_at across slices" true
        (call (Message.Scan_at { lo = "p|"; hi = "p}"; min })
        = Message.Pairs [ ("p|ann|0042", "hello"); ("p|cal|0007", "hi") ]))

(* ------------------------------------------------------------------ *)
(* Codec torture: malformed byte streams must never crash or wedge the
   loop — under both poller backends. *)

let with_stepped_server ~backend f =
  let t = Net_server.create ~backend ~port:0 ~joins:[] ~memory_limit:None () in
  Fun.protect ~finally:(fun () -> Net_server.stop t) (fun () -> f t)

let connect t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Net_server.port t));
  fd

let send_all fd s =
  let sent = ref 0 in
  while !sent < String.length s do
    sent := !sent + Unix.write_substring fd s !sent (String.length s - !sent)
  done

(* pump the server and read one response frame *)
let read_response t fd =
  let decoder = Frame.decoder () in
  let buf = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    if Unix.gettimeofday () > deadline then failwith "response timeout";
    Net_server.step ~timeout:0.01 t;
    match Unix.select [ fd ] [] [] 0.01 with
    | [ _ ], _, _ -> (
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      if n = 0 then failwith "connection closed";
      match Frame.feed decoder (Bytes.sub_string buf 0 n) with
      | frame :: _ -> Message.decode_response frame
      | [] -> go ())
    | _ -> go ()
  in
  go ()

let rpc t fd req =
  send_all fd (Frame.encode (Message.encode_request req));
  read_response t fd

(* the server must close the connection: pump until our read sees EOF *)
let expect_close t fd =
  let buf = Bytes.create 256 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    if Unix.gettimeofday () > deadline then failwith "server did not close";
    Net_server.step ~timeout:0.01 t;
    match Unix.select [ fd ] [] [] 0.01 with
    | [ _ ], _, _ -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> ()
      | _ -> go ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ())
    | _ -> go ()
  in
  go ()

(* after each torture case the server must still serve a clean session *)
let assert_still_serving t =
  let fd = connect t in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      check_bool "still serving" true
        (is_ack (rpc t fd (Message.Put ("health|k", "ok"))));
      match rpc t fd (Message.Get "health|k") with
      | Message.Value (Some "ok") -> ()
      | _ -> Alcotest.fail "server wedged after torture case")

let torture ~backend () =
  with_stepped_server ~backend (fun t ->
      (* byte-at-a-time: a pipelined trio dribbled one byte per step
         must still produce exactly the three responses *)
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let wire =
            Frame.encode
              (Message.encode_request (Message.Hello { version = Message.protocol_version }))
            ^ Frame.encode (Message.encode_request (Message.Put ("b|one", "1")))
            ^ Frame.encode (Message.encode_request (Message.Get "b|one"))
          in
          String.iter
            (fun c ->
              send_all fd (String.make 1 c);
              Net_server.step ~timeout:0.0 t)
            wire;
          (* pipelined responses can arrive coalesced in one read: decode
             them through one persistent decoder *)
          let decoder = Frame.decoder () in
          let buf = Bytes.create 4096 in
          let deadline = Unix.gettimeofday () +. 5.0 in
          let responses = ref [] in
          while List.length !responses < 3 do
            if Unix.gettimeofday () > deadline then failwith "byte-at-a-time timeout";
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
          | [ Message.Welcome _; (Message.Done | Message.Stamps _); Message.Value (Some "1") ] -> ()
          | _ -> Alcotest.fail "byte-at-a-time session");
      (* truncated frame: a header promising 100 bytes, 10 delivered,
         then disconnect — the server must just drop the connection *)
      let fd = connect t in
      send_all fd "\x00\x00\x00\x64partialpay";
      Net_server.step ~timeout:0.01 t;
      Unix.close fd;
      Net_server.step ~timeout:0.01 t;
      assert_still_serving t;
      (* oversized frame: a length beyond Frame.max_frame must get the
         connection dropped before any allocation of that size *)
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          send_all fd "\x7f\xff\xff\xff";
          expect_close t fd);
      assert_still_serving t;
      (* garbage tag: a well-framed payload that is not a request gets a
         protocol-error response and the session continues *)
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          send_all fd (Frame.encode "\xee\xaa\xbb\xcc");
          (match read_response t fd with
          | Message.Error _ -> ()
          | _ -> Alcotest.fail "garbage tag must answer an error");
          check_bool "session survives garbage" true
            (is_ack (rpc t fd (Message.Put ("b|two", "2")))));
      (* mid-handshake disconnect: half a Hello then EOF *)
      let fd = connect t in
      let hello =
        Frame.encode (Message.encode_request (Message.Hello { version = Message.protocol_version }))
      in
      send_all fd (String.sub hello 0 (String.length hello / 2));
      Net_server.step ~timeout:0.01 t;
      Unix.close fd;
      Net_server.step ~timeout:0.01 t;
      assert_still_serving t)

(* ------------------------------------------------------------------ *)
(* Fd-scale: the epoll poller must serve more sockets than FD_SETSIZE
   (1024) allows a select loop. *)

let fd_soft_limit () =
  (* /proc/self/limits: "Max open files  <soft>  <hard>  files" *)
  match open_in "/proc/self/limits" with
  | exception Sys_error _ -> None
  | ic ->
    let rec find () =
      match input_line ic with
      | line when String.length line >= 14 && String.sub line 0 14 = "Max open files" -> (
        match
          String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
        with
        | _ :: _ :: _ :: soft :: _ -> int_of_string_opt soft
        | _ -> None)
      | _ -> find ()
      | exception End_of_file -> None
    in
    let r = find () in
    close_in ic;
    r

let test_fd_scale () =
  let conns = 1100 in
  (match fd_soft_limit () with
  | Some limit when limit < (2 * conns) + 200 ->
    Printf.printf "SKIP fd-scale: ulimit -n is %d, need >= %d\n%!" limit ((2 * conns) + 200);
    Alcotest.skip ()
  | _ -> ());
  let t =
    Shard.create ~backend:`Epoll ~port:0 ~joins:[] ~memory_limit:None ~shards:1 ()
  in
  Shard.start t;
  let fds = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !fds;
      Shard.stop t)
    (fun () ->
      check_bool "epoll backend" true
        (List.for_all
           (fun srv -> Net_server.poller_backend srv = `Epoll)
           (Shard.servers t));
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Shard.port t) in
      for _ = 1 to conns do
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (* blocking sockets with a receive deadline: these fds exceed
           FD_SETSIZE, so the client side must not use select either *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
        Unix.connect fd addr;
        fds := fd :: !fds
      done;
      (* every connection held open, one write each, server-side fd count
         is now > 1024 *)
      let buf = Bytes.create 4096 in
      List.iteri
        (fun i fd ->
          send_all fd
            (Frame.encode
               (Message.encode_request (Message.Put (Printf.sprintf "f|%05d" i, "x"))));
          let decoder = Frame.decoder () in
          let rec read_done () =
            let n = Unix.read fd buf 0 (Bytes.length buf) in
            if n = 0 then failwith "connection closed under fd pressure";
            match Frame.feed decoder (Bytes.sub_string buf 0 n) with
            | frame :: _ -> Message.decode_response frame
            | [] -> read_done ()
          in
          match read_done () with
          | Message.Done | Message.Stamps _ -> ()
          | _ -> Alcotest.failf "put %d under fd pressure" i)
        !fds;
      (* all writes landed, served through one epoll loop *)
      match !fds with
      | probe :: _ -> (
        send_all probe
          (Frame.encode (Message.encode_request (Message.Scan { lo = "f|"; hi = "f}" })));
        let decoder = Frame.decoder () in
        let rec read_scan () =
          let n = Unix.read probe buf 0 (Bytes.length buf) in
          if n = 0 then failwith "probe closed";
          match Frame.feed decoder (Bytes.sub_string buf 0 n) with
          | frame :: _ -> Message.decode_response frame
          | [] -> read_scan ()
        in
        match read_scan () with
        | Message.Pairs pairs ->
          Alcotest.(check int) "all pairs present" conns (List.length pairs)
        | _ -> Alcotest.fail "scan under fd pressure")
      | [] -> assert false)

let () =
  Alcotest.run "shard"
    [
      ( "equivalence",
        [
          Alcotest.test_case "1-shard vs 3-shard transcript" `Quick
            test_transcript_equivalence;
          Alcotest.test_case "cross-shard freshness" `Quick test_cross_shard_freshness;
          Alcotest.test_case "wildcard directory" `Quick test_shard_directory;
          Alcotest.test_case "stamped reads across shards" `Quick test_stamped_reads;
        ] );
      ( "codec-torture",
        [
          Alcotest.test_case "select backend" `Quick (torture ~backend:`Select);
          Alcotest.test_case "epoll backend" `Quick (torture ~backend:`Epoll);
        ] );
      ("fd-scale", [ Alcotest.test_case "1100 connections over epoll" `Quick test_fd_scale ]);
    ]
