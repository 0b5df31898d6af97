(* Integration tests for the network server: the select event loop is
   driven manually with step(), with real TCP sockets in one process.
   The client group drives the blocking Net_client against fake
   servers, each a raw socket served from its own domain. *)

module Net_server = Pequod_server_lib.Net_server
module Net_client = Pequod_server_lib.Net_client
module Remote = Pequod_server_lib.Remote
module Directory = Pequod_server_lib.Directory
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

(* One-way requests produce no response frame: a Notify_batch followed by a
   Get must answer the Get first (and only) — the notify is applied, not
   acknowledged. *)
let test_oneway_notify () =
  with_server ~joins:[] (fun t ->
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let wire =
            Frame.encode
              (Message.encode_request
                 (Message.Notify_batch { items = [ ("k|a", Some "pushed") ]; stamps = [] }))
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

(* A home pushing to a subscriber whose port refuses connections never
   stalls its loop on it: every step after a write in the subscribed
   range stays short, the failed push drops the subscriber, and its
   Sub_check heartbeat then lists nothing (so a subscriber that is in
   fact alive refetches instead of serving a frozen copy). *)
let test_refused_subscriber () =
  with_server ~joins:[] (fun t ->
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (* port 9 on loopback: nothing listens; connect is refused *)
          let subscriber = "127.0.0.1:9" in
          check_bool "seed put" true (is_ack (rpc t fd (Message.Put ("p|a|1", "v"))));
          (match rpc t fd (Message.Fetch { table = "p"; lo = "p|"; hi = "p}"; subscriber }) with
          | Message.Subscribed _ -> ()
          | _ -> Alcotest.fail "fetch");
          let wire = Frame.encode (Message.encode_request (Message.Put ("p|a|2", "w"))) in
          ignore (Unix.write_substring fd wire 0 (String.length wire));
          let slowest = ref 0. in
          for _ = 1 to 20 do
            let t0 = Unix.gettimeofday () in
            Net_server.step ~timeout:0.01 t;
            slowest := Float.max !slowest (Unix.gettimeofday () -. t0)
          done;
          if !slowest > 0.05 then Alcotest.failf "a step took %.0f ms" (!slowest *. 1000.);
          let buf = Bytes.create 4096 in
          (match Unix.select [ fd ] [] [] 1.0 with
          | [ _ ], _, _ -> (
            match Frame.feed (Frame.decoder ()) (Bytes.sub_string buf 0 (Unix.read fd buf 0 4096)) with
            | frame :: _ -> check_bool "write acked" true (is_ack (Message.decode_response frame))
            | [] -> Alcotest.fail "no whole write ack")
          | _ -> Alcotest.fail "no write ack");
          match rpc t fd (Message.Sub_check { subscriber }) with
          | Message.Sub_ranges [] -> ()
          | Message.Sub_ranges _ -> Alcotest.fail "the refused subscriber is still listed"
          | _ -> Alcotest.fail "sub_check response"))

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

(* A home sends a write's push in the same handler that answers the
   write, right behind the ack, not at the end of the loop step: once
   the writer can read its ack, the subscriber's socket already holds
   the Notify_batch. A raw listening socket stands in for the
   subscriber, and the test runs only the server's read handler for the
   write, so nothing later in the step can send the push. *)
let test_push_with_ack () =
  with_server ~joins:[] (fun t ->
      let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen listener 4;
      let subscriber =
        match Unix.getsockname listener with
        | Unix.ADDR_INET (_, port) -> Printf.sprintf "127.0.0.1:%d" port
        | Unix.ADDR_UNIX _ -> assert false
      in
      let fd = connect t in
      let sub = ref None in
      Fun.protect
        ~finally:(fun () ->
          Option.iter Unix.close !sub;
          Unix.close fd;
          Unix.close listener)
        (fun () ->
          let readable fd = match Unix.select [ fd ] [] [] 0.0 with [ _ ], _, _ -> true | _ -> false in
          let deadline = Unix.gettimeofday () +. 5.0 in
          let pump_until cond =
            while not (cond ()) do
              if Unix.gettimeofday () > deadline then failwith "timeout";
              Net_server.step ~timeout:0.01 t
            done
          in
          (match rpc t fd (Message.Fetch { table = "p"; lo = "p|"; hi = "p}"; subscriber }) with
          | Message.Subscribed _ -> ()
          | _ -> Alcotest.fail "subscribe");
          (* a first write opens the home's connection to the subscriber *)
          check_bool "first write" true (is_ack (rpc t fd (Message.Put ("p|a|1", "v1"))));
          pump_until (fun () -> readable listener);
          let s, _ = Unix.accept listener in
          sub := Some s;
          let decoder = Frame.decoder () and buf = Bytes.create 65536 in
          let pushes () =
            let n = Unix.read s buf 0 (Bytes.length buf) in
            List.map Message.decode_request (Frame.feed decoder (Bytes.sub_string buf 0 n))
          in
          pump_until (fun () -> readable s);
          ignore (pushes ());
          (* the second write: the read handler alone must send both *)
          let wire = Frame.encode (Message.encode_request (Message.Put ("p|a|2", "v2"))) in
          ignore (Unix.write_substring fd wire 0 (String.length wire));
          let client =
            match Hashtbl.fold (fun _ c acc -> c :: acc) t.Net_server.conns [] with
            | [ c ] -> c
            | _ -> Alcotest.fail "expected one client connection"
          in
          ignore (Unix.select [ client.Net_server.fd ] [] [] 5.0);
          Net_server.handle_readable t client;
          check_bool "the ack is readable" true (readable fd);
          check_bool "the push is already readable" true (readable s);
          match pushes () with
          | [ Message.Notify_batch { items = [ ("p|a|2", Some "v2") ]; _ } ] -> ()
          | _ -> Alcotest.fail "expected one Notify_batch carrying the write"))

let entry table lo hi home =
  { Message.de_table = table; de_lo = lo; de_hi = hi; de_home = home; de_replicas = [] }

let homes_of pieces =
  List.map
    (fun (e, lo, hi) ->
      (Option.map (fun (e : Message.dir_entry) -> e.de_home) e, lo, hi))
    pieces

(* Route-coverage planning: unrouted tables stay local, partial
   coverage is a surfaced gap (never silently present-and-empty), and
   fetch clamps carry only the intersections homed elsewhere. *)
let test_remote_plan () =
  let plan entries ~table ~lo ~hi = Directory.plan ~self:"me:1" ~outputs:[] entries ~table ~lo ~hi in
  let split = [ entry "p" "p|" "p|m" "h1:1"; entry "p" "p|m" "p}" "h2:1" ] in
  (match plan split ~table:"q" ~lo:"q|" ~hi:"q}" with
  | `Unrouted -> ()
  | _ -> Alcotest.fail "unrouted table");
  (match plan split ~table:"p" ~lo:"p|a" ~hi:"p|z" with
  | `Fetch [ (e1, "p|a", "p|m"); (e2, "p|m", "p|z") ]
    when e1.de_home = "h1:1" && e2.de_home = "h2:1" ->
    ()
  | _ -> Alcotest.fail "split fetch clamps");
  let gappy = [ entry "p" "p|" "p|m" "h1:1"; entry "p" "p|n" "p}" "h2:1" ] in
  (match plan gappy ~table:"p" ~lo:"p|a" ~hi:"p|z" with
  | `Gap -> ()
  | _ -> Alcotest.fail "uncovered middle must be a gap");
  (match plan gappy ~table:"p" ~lo:"p|a" ~hi:"p|b" with
  | `Fetch [ (_, "p|a", "p|b") ] -> ()
  | _ -> Alcotest.fail "fully covered prefix");
  (* a locally homed entry covers its part but yields no clamp *)
  let mixed = [ entry "p" "p|" "p|m" "me:1"; entry "p" "p|m" "p}" "h2:1" ] in
  match plan mixed ~table:"p" ~lo:"p|a" ~hi:"p|z" with
  | `Fetch [ (e, "p|m", "p|z") ] when e.de_home = "h2:1" -> ()
  | _ -> Alcotest.fail "local coverage must not be fetched"

(* The wildcard rule, which only Directory knows: a "*" entry covers
   the same component-space slice of every table, "" is an open end, and
   a table any specific entry names is governed by specific entries
   only. A range spanning tables cannot be cut by wildcards: it spreads
   over their homes. *)
let test_wildcard_directory () =
  let wild lo hi home = entry "*" lo hi home in
  let shards = [ wild "" "b" "a:1"; wild "b" "d" "b:1"; wild "d" "" "c:1" ] in
  let install entries =
    let dir = Directory.create () in
    match Directory.install dir ~epoch:1 ~entries with
    | Ok () -> dir
    | Error msg -> Alcotest.failf "install: %s" msg
  in
  let dir = install shards in
  List.iter
    (fun (key, want) ->
      match Directory.home_of dir ~key with
      | Some h when h = want -> ()
      | got ->
        Alcotest.failf "home of %S: %s, want %s" key (Option.value got ~default:"none") want)
    [ ("p|ann|1", "a:1"); ("s|bob|x", "b:1"); ("zz|eve", "c:1"); ("t|d", "c:1");
      ("t|", "a:1"); ("q", "a:1") (* a bare key's component is empty *);
      ("p|\xfe\xfe", "c:1") (* "" upper bound: open *) ];
  (match Directory.for_table shards ~table:"p" with
  | [ a; b; c ] ->
    check_bool "instantiated in key space" true
      ((a.de_lo, a.de_hi, b.de_lo, b.de_hi, c.de_lo, c.de_hi)
       = ("p", "p|b", "p|b", "p|d", "p|d", "p}"))
  | _ -> Alcotest.fail "one instantiated entry per wildcard");
  (* a specific entry takes its table away from the wildcards, even
     where it leaves a gap *)
  let mixed = install (entry "p" "p|" "p|m" "x:1" :: shards) in
  check_bool "specific entry governs" true (Directory.home_of mixed ~key:"p|zed" = None);
  check_bool "specific entry homes" true (Directory.home_of mixed ~key:"p|ann" = Some "x:1");
  check_bool "other tables stay wildcard" true (Directory.home_of mixed ~key:"s|zed" = Some "c:1");
  (match Directory.plan ~self:"b:1" ~outputs:[] shards ~table:"p" ~lo:"p|a" ~hi:"p|e" with
  | `Fetch [ (e1, "p|a", "p|b"); (e2, "p|d", "p|e") ]
    when e1.de_home = "a:1" && e2.de_home = "c:1" ->
    ()
  | _ -> Alcotest.fail "wildcard fetch clamps");
  (match Directory.segments shards ~lo:"p|a" ~hi:"p|c" with
  | `Cut pieces ->
    check_bool "one-table scan cut by slice" true
      (homes_of pieces = [ (Some "a:1", "p|a", "p|b"); (Some "b:1", "p|b", "p|c") ])
  | `Spread _ -> Alcotest.fail "a one-table scan must be cut");
  (match Directory.segments shards ~lo:"p|" ~hi:"q}" with
  | `Spread homes -> check_bool "spread homes" true (homes = [ "a:1"; "b:1"; "c:1" ])
  | `Cut _ -> Alcotest.fail "a cross-table scan must spread over wildcards");
  (match
     Directory.segments [ entry "p" "p|" "p}" "A"; entry "q" "q|" "q}" "B" ] ~lo:"p|"
       ~hi:"q}"
   with
  | `Cut pieces ->
    check_bool "cross-table scan cut in key order" true
      (homes_of pieces
       = [ (Some "A", "p|", "p}"); (None, "p}", "q|"); (Some "B", "q|", "q}") ])
  | `Spread _ -> Alcotest.fail "specific entries cut across tables");
  List.iter
    (fun (what, entries) ->
      match Directory.validate entries with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s must be rejected" what)
    [ ("overlapping wildcards", [ wild "" "c" "a:1"; wild "b" "" "b:1" ]);
      ("a wildcard after an open end", [ wild "" "" "a:1"; wild "b" "c" "b:1" ]);
      ("an inverted wildcard", [ wild "d" "b" "a:1" ]);
      ("an empty wildcard", [ wild "b" "b" "a:1" ]) ];
  (* "*" is the directory's wildcard: a spec's key-space bounds must
     never be read as one *)
  List.iter
    (fun spec ->
      match Remote.entries_of_specs ~self_addr:"me:1" [ "s"; spec ] with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S must be rejected" spec)
    [ "*"; "*@127.0.0.1:1"; "*:a:b@127.0.0.1:1" ]

(* Every "who serves this key" decision, one row per entry shape, as
   seen from me:1: where a write applies, who serves a point read, how a
   scan is pieced, and what a miss in the scan's first table fetches. *)
type route_case = {
  rc_name : string;
  rc_entries : Message.dir_entry list;
  rc_outputs : string list; (* join-output tables *)
  rc_key : string;
  rc_write : string option;
  rc_read : string;
  rc_scan : string * string * bool; (* lo, hi, spread *)
  rc_pieces : string list;
  rc_plan : string;
}

let test_routing_decisions () =
  let self = "me:1" in
  let slices = [ entry "*" "" "m" self; entry "*" "m" "" "h2:1" ] in
  let show = function
    | Directory.Local -> "local"
    | Directory.Replica -> "replica"
    | Directory.Forward cands -> "forward " ^ String.concat "," cands
  in
  let show_plan = function
    | `Unrouted -> "unrouted"
    | `Gap -> "gap"
    | `Fetch clamps ->
      String.concat " "
        ("fetch"
        :: List.map
             (fun ((e : Message.dir_entry), lo, hi) -> Printf.sprintf "%s[%s,%s)" e.de_home lo hi)
             clamps)
  in
  let row ?(outputs = []) ?(spread = false) name entries ~key ~write ~read ~lo ~hi pieces plan =
    { rc_name = name; rc_entries = entries; rc_outputs = outputs; rc_key = key;
      rc_write = write; rc_read = read; rc_scan = (lo, hi, spread); rc_pieces = pieces;
      rc_plan = plan }
  in
  List.iter
    (fun rc ->
      let lo, hi, spread = rc.rc_scan in
      let table = Pequod_store.Store.table_name_of lo in
      let hi' = if String.compare hi (table ^ "}") < 0 then hi else table ^ "}" in
      let check what want got = Alcotest.(check string) (rc.rc_name ^ ": " ^ what) want got in
      check "write" (Option.value rc.rc_write ~default:"here")
        (Option.value (Directory.write_home rc.rc_entries ~self ~key:rc.rc_key) ~default:"here");
      check "read" rc.rc_read (show (Directory.read_route rc.rc_entries ~self ~key:rc.rc_key));
      check "scan" (String.concat "; " rc.rc_pieces)
        (String.concat "; "
           (List.map
              (fun (route, l, h) -> Printf.sprintf "%s [%s,%s)" (show route) l h)
              (Directory.scan_route rc.rc_entries ~self ~spread ~lo ~hi)));
      check "plan" rc.rc_plan
        (show_plan
           (Directory.plan ~self ~outputs:rc.rc_outputs rc.rc_entries ~table ~lo ~hi:hi')))
    [ row "homed here" [ entry "p" "p|" "p}" self ] ~key:"p|a" ~write:None ~read:"local"
        ~lo:"p|a" ~hi:"p|z" [ "local [p|a,p|z)" ] "fetch";
      row "homed elsewhere" [ entry "p" "p|" "p}" "h1:1" ] ~key:"p|a" ~write:(Some "h1:1")
        ~read:"forward h1:1" ~lo:"p|a" ~hi:"p|z" [ "forward h1:1 [p|a,p|z)" ]
        "fetch h1:1[p|a,p|z)";
      row "replica here"
        [ { (entry "p" "p|" "p}" "h1:1") with de_replicas = [ self; "r2:1" ] } ]
        ~key:"p|a" ~write:(Some "h1:1") ~read:"replica" ~lo:"p|a" ~hi:"p|z"
        [ "replica [p|a,p|z)" ] "fetch h1:1[p|a,p|z)";
      row "another server's replica"
        [ { (entry "p" "p|" "p}" "h1:1") with de_replicas = [ "r2:1" ] } ]
        ~key:"p|a" ~write:(Some "h1:1") ~read:"forward r2:1,h1:1" ~lo:"p|a" ~hi:"p|z"
        [ "forward r2:1,h1:1 [p|a,p|z)" ] "fetch h1:1[p|a,p|z)";
      row "wildcard slices" slices ~key:"p|x" ~write:(Some "h2:1") ~read:"forward h2:1"
        ~lo:"p|a" ~hi:"p|z"
        [ "local [p|a,p|m)"; "forward h2:1 [p|m,p|z)" ] "fetch h2:1[p|m,p|z)";
      row "a gap" [ entry "p" "p|" "p|m" "h1:1"; entry "p" "p|n" "p}" "h2:1" ] ~key:"p|m5"
        ~write:None ~read:"local" ~lo:"p|a" ~hi:"p|z"
        [ "forward h1:1 [p|a,p|m)"; "local [p|m,p|n)"; "forward h2:1 [p|n,p|z)" ] "gap";
      row "cross-table, spread" ~spread:true slices ~key:"q|a" ~write:None ~read:"local"
        ~lo:"p|" ~hi:"q}" [ "local [p|,q})"; "forward h2:1 [p|,q})" ] "fetch h2:1[p|m,p})";
      row "cross-table, a spread leg" slices ~key:"q|a" ~write:None ~read:"local" ~lo:"p|"
        ~hi:"q}" [ "local [p|,q})" ] "fetch h2:1[p|m,p})";
      row "epoch 0" (Directory.entries (Directory.create ())) ~key:"p|a" ~write:None
        ~read:"local" ~lo:"p|a" ~hi:"p|z" [ "local [p|a,p|z)" ] "unrouted";
      row "join output under wildcards" ~outputs:[ "t" ] slices ~key:"t|x" ~write:(Some "h2:1")
        ~read:"forward h2:1" ~lo:"t|a" ~hi:"t|z"
        [ "local [t|a,t|m)"; "forward h2:1 [t|m,t|z)" ] "unrouted" ]

(* ---- the blocking client, against fake servers ---- *)

let write_all fd s =
  let sent = ref 0 in
  while !sent < String.length s do
    sent := !sent + Unix.write_substring fd s !sent (String.length s - !sent)
  done

let listener () =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 16;
  match Unix.getsockname lfd with
  | Unix.ADDR_INET (_, port) -> (lfd, Printf.sprintf "127.0.0.1:%d" port)
  | Unix.ADDR_UNIX _ -> assert false

(* A fake server in its own domain: it accepts [conns] connections one
   after another and runs [serve i recv send] on the i-th (from 1),
   where [recv ()] is the connection's next request ([None] once the
   client has closed it) and [send] answers. Joining the domain returns
   the per-connection results, and re-raises a failed expectation. *)
let fake_server ~conns serve =
  let lfd, addr = listener () in
  let domain =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Unix.close lfd)
          (fun () ->
            List.init conns (fun i ->
                let fd, _ = Unix.accept lfd in
                let decoder = Frame.decoder () and buf = Bytes.create 65536 in
                let inbox = Queue.create () in
                let rec recv () =
                  match Queue.take_opt inbox with
                  | Some frame -> Some (Message.decode_request frame)
                  | None -> (
                    match Unix.read fd buf 0 (Bytes.length buf) with
                    | 0 -> None
                    | n ->
                      List.iter (fun f -> Queue.add f inbox)
                        (Frame.feed decoder (Bytes.sub_string buf 0 n));
                      recv ()
                    | exception Unix.Unix_error _ -> None)
                in
                let send resp = write_all fd (Frame.encode (Message.encode_response resp)) in
                Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> serve (i + 1) recv send))))
  in
  (addr, domain)

let welcome recv send =
  match recv () with
  | Some (Message.Hello _) -> send (Message.Welcome { version = Message.protocol_version })
  | _ -> failwith "fake server: expected Hello first"

(* answer every request until the client closes; the count answered *)
let echo recv send =
  let rec go n =
    match recv () with
    | Some (Message.Get k) ->
      send (Message.Value (Some k));
      go (n + 1)
    | Some _ ->
      send Message.Done;
      go (n + 1)
    | None -> n
  in
  go 0

let handshake_then_echo _ recv send =
  welcome recv send;
  echo recv send

let net_error f =
  match f () with
  | _ -> Alcotest.fail "expected Net_error"
  | exception Net_client.Net_error msg -> msg

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_client_dead_port () =
  let lfd, addr = listener () in
  Unix.close lfd;
  let c = Net_client.create addr in
  let t0 = Unix.gettimeofday () in
  let msg = net_error (fun () -> Net_client.call c Message.Stats_full) in
  let took = Unix.gettimeofday () -. t0 in
  Net_client.close c;
  if not (contains msg "refused") then Alcotest.failf "error %S does not name the refusal" msg;
  if took >= 1.0 then Alcotest.failf "a refused connect took %.2f s" took

(* a server that takes the connection but never answers: the handshake
   waits out [connect_timeout], a request [call_timeout] *)
let test_client_timeout () =
  let obs = Obs.create () in
  let config = { Net_client.connect_timeout = 0.3; call_timeout = 0.3 } in
  let timed_out what f =
    let t0 = Unix.gettimeofday () in
    let msg = net_error f in
    let took = Unix.gettimeofday () -. t0 in
    if not (contains msg "timed out") then Alcotest.failf "%s: error %S" what msg;
    if took < 0.25 || took > 1.5 then Alcotest.failf "%s timed out after %.2f s" what took
  in
  (* never accepted: the kernel completes the connect, Hello goes unanswered *)
  let lfd, addr = listener () in
  let c = Net_client.create ~obs ~config addr in
  timed_out "handshake" (fun () -> Net_client.call c Message.Stats_full);
  Unix.close lfd;
  Alcotest.(check int) "one timeout" 1 (Obs.counter_value obs "net.client.timeouts");
  let addr, server =
    fake_server ~conns:1 (fun _ recv send ->
        welcome recv send;
        ignore (recv ());
        ignore (recv ()))
  in
  let c = Net_client.create ~obs ~config addr in
  timed_out "call" (fun () -> Net_client.call c (Message.Get "k"));
  ignore (Domain.join server);
  Alcotest.(check int) "two timeouts" 2 (Obs.counter_value obs "net.client.timeouts")

let test_client_version_mismatch () =
  let addr, server =
    fake_server ~conns:1 (fun _ recv send ->
        (match recv () with
        | Some (Message.Hello _) ->
          send (Message.Welcome { version = Message.protocol_version + 1 })
        | _ -> failwith "expected Hello");
        echo recv send)
  in
  let c = Net_client.create addr in
  let msg = net_error (fun () -> Net_client.call c (Message.Get "k")) in
  Net_client.close c;
  if not (contains msg "handshake") then Alcotest.failf "error %S" msg;
  match Domain.join server with
  | [ 0 ] -> ()
  | _ -> Alcotest.fail "a frame after Hello reached a server of another version"

let test_client_reconnect () =
  let addr, server =
    fake_server ~conns:2 (fun i recv send ->
        welcome recv send;
        if i = 1 then ignore (recv ()) (* the request: hang up without answering *)
        else ignore (echo recv send))
  in
  let c = Net_client.create addr in
  ignore (net_error (fun () -> Net_client.call c (Message.Get "lost")));
  (match Net_client.call c (Message.Get "k") with
  | Message.Value (Some "k") -> ()
  | _ -> Alcotest.fail "the call after a server-side close");
  Net_client.close c;
  ignore (Domain.join server)

let test_client_pipeline_order () =
  let addr, server = fake_server ~conns:1 handshake_then_echo in
  let c = Net_client.create addr in
  let keys = List.init 100 (Printf.sprintf "k%03d") in
  let answers = Net_client.pipeline c (List.map (fun k -> Message.Get k) keys) in
  Net_client.close c;
  check_bool "in order" true (answers = List.map (fun k -> Message.Value (Some k)) keys);
  Alcotest.(check (list int)) "one connection" [ 100 ] (Domain.join server)

(* every create/call/close cycle gives back its sockets and, under
   epoll, its poller's descriptor *)
let test_client_no_fd_leak () =
  if Sys.file_exists "/proc/self/fd" then begin
    let cycles = 2_000 in
    let fds () = Array.length (Sys.readdir "/proc/self/fd") in
    let addr, server = fake_server ~conns:cycles handshake_then_echo in
    let before = fds () in
    for _ = 1 to cycles do
      let c = Net_client.create addr in
      ignore (Net_client.call c (Message.Get "k"));
      Net_client.close c
    done;
    check_bool "every connection served" true
      (List.for_all (( = ) 1) (Domain.join server));
    (* the fake server's listener is closed now *)
    Alcotest.(check int) "open descriptors" (before - 1) (fds ())
  end

(* ------------------------------------------------------------------ *)
(* The home's subscription table (Subs), on a bare engine: each row is
   a script of operations on a fresh table and the transcript it gives *)

module Subs = Pequod_server_lib.Subs

type subs_op =
  | Grant of string * string * string (* subscriber, lo, hi; table of [lo] *)
  | Refused of string * string * string
  | Write of string * string option
  | Flush
  | Ranges of string (* the subscriber's Sub_check answer *)
  | Drop of string
  | Hand_off of string * string * string (* lo, hi, dest *)

let run_subs ops =
  let engine = Server.create () in
  (* [q] is computed from [r], which is homed elsewhere: a scan of [q]
     misses *)
  Server.add_join_exn engine "q|<a>|<b> = copy r|<a>|<b>";
  Server.set_resolver engine (fun ~table ~lo:_ ~hi:_ ->
      if table = "r" then Server.Deferred else Server.Local);
  Server.set_range_stamp engine ~table:"p" ~lo:"p|a" ~hi:"p|f" 5;
  Server.set_range_stamp engine ~table:"p" ~lo:"p|k" ~hi:"p|p" 7;
  let subs = Subs.create engine in
  let range (table, lo, hi) = Printf.sprintf "%s[%s,%s)" table lo hi in
  let items l =
    String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ Option.value v ~default:"-") l)
  in
  let batch = function
    | dst, Message.Notify_batch { items = l; stamps } ->
      Printf.sprintf "%s <- %s | %s" dst (items l)
        (String.concat " "
           (List.map
              (fun (t, lo, hi, s) -> Printf.sprintf "%s@%d" (range (t, lo, hi)) s)
              (List.sort compare stamps)))
    | _ -> "unexpected request"
  in
  let fetch = function
    | Message.Fetch { table; lo; hi; subscriber } -> subscriber ^ " " ^ range (table, lo, hi)
    | _ -> "unexpected request"
  in
  let lines l = match l with [] -> "none" | l -> String.concat "; " l in
  let grant ~refused sub lo hi =
    let table = Pequod_store.Store.table_name_of lo in
    match Subs.grant subs ~refused ~table ~lo ~hi ~subscriber:sub with
    | Message.Subscribed _ -> [ "subscribed" ]
    | Message.Error m -> [ "error: " ^ m ]
    | _ -> [ "unexpected answer" ]
  in
  List.concat_map
    (function
      | Grant (sub, lo, hi) -> grant ~refused:None sub lo hi
      | Refused (sub, lo, hi) -> grant ~refused:(Some "routed elsewhere") sub lo hi
      | Write (key, v) ->
        Subs.enqueue subs key v;
        []
      | Flush -> [ "flush: " ^ lines (List.map batch (Subs.flush subs)) ]
      | Ranges sub -> [ sub ^ " holds: " ^ lines (List.map range (Subs.ranges_of subs sub)) ]
      | Drop sub ->
        Subs.drop subs sub;
        []
      | Hand_off (lo, hi, dest) ->
        let table = Pequod_store.Store.table_name_of lo in
        let reqs = Subs.hand_off subs ~table ~lo ~hi ~dest in
        [ "hand off: " ^ lines (List.sort compare (List.map fetch reqs)) ])
    ops

let test_subs_table () =
  let v = Some "v" in
  List.iter
    (fun (name, ops, want) ->
      Alcotest.(check (list string)) name want (run_subs ops))
    [ ( "a trailer lists the destination's pushed ranges that carry a stamp",
        [ Grant ("c1", "p|a", "p|f"); Grant ("c1", "p|f", "p|k"); Grant ("c1", "p|k", "p|p");
          Grant ("c2", "p|a", "p|c"); Write ("p|b", v); Write ("p|g", v); Flush ],
        [ "subscribed"; "subscribed"; "subscribed"; "subscribed";
          "flush: c1 <- p|b=v p|g=v | p[p|a,p|f)@5; c2 <- p|b=v | p[p|a,p|c)@5" ] );
      ( "a key inside two ranges lists both",
        [ Grant ("c1", "p|a", "p|f"); Grant ("c1", "p|b", "p|d"); Write ("p|c", v); Flush ],
        [ "subscribed"; "subscribed"; "flush: c1 <- p|c=v | p[p|a,p|f)@5 p[p|b,p|d)@5" ] );
      ( "destinations flush in first-enqueue order, once",
        [ Grant ("c2", "p|d", "p|f"); Grant ("c1", "p|a", "p|c"); Write ("p|e", v);
          Write ("p|b", None); Write ("p|d", v); Flush; Flush ],
        [ "subscribed"; "subscribed";
          "flush: c2 <- p|e=v p|d=v | p[p|d,p|f)@5; c1 <- p|b=- | p[p|a,p|c)@5";
          "flush: none" ] );
      ( "a regrant keeps one entry; another range adds one",
        [ Grant ("c1", "p|a", "p|f"); Grant ("c1", "p|a", "p|f"); Ranges "c1";
          Grant ("c1", "p|a", "p|g"); Ranges "c1" ],
        [ "subscribed"; "subscribed"; "c1 holds: p[p|a,p|f)"; "subscribed";
          "c1 holds: p[p|a,p|f); p[p|a,p|g)" ] );
      ( "a missing, refused or anonymous grant leaves no entry",
        [ Grant ("c1", "q|a", "q|f"); Refused ("c1", "p|a", "p|f"); Grant ("", "p|a", "p|f");
          Ranges "c1"; Ranges ""; Write ("q|b", v); Write ("p|b", v); Flush ],
        [ "error: not the home for q[q|a,q|f)"; "error: routed elsewhere"; "subscribed";
          "c1 holds: none"; " holds: none"; "flush: none" ] );
      ( "drop removes only that subscriber",
        [ Grant ("c1", "p|a", "p|f"); Grant ("c2", "p|a", "p|f"); Grant ("c1", "p|k", "p|p");
          Drop "c1"; Ranges "c1"; Ranges "c2"; Write ("p|b", v); Flush ],
        [ "subscribed"; "subscribed"; "subscribed"; "c1 holds: none"; "c2 holds: p[p|a,p|f)";
          "flush: c2 <- p|b=v | p[p|a,p|f)@5" ] );
      ( "a hand-off moves the range's entries, clamped, and keeps straddlers",
        [ Grant ("c1", "p|c", "p|e"); Grant ("c2", "p|a", "p|d"); Grant ("c3", "p|f", "p|k");
          Grant ("d1", "p|c", "p|d"); Grant ("c4", "p|m", "p|p");
          Hand_off ("p|b", "p|h", "d1"); Ranges "c1"; Ranges "c2"; Ranges "c3"; Ranges "d1";
          Ranges "c4"; Write ("p|c", v); Flush ],
        [ "subscribed"; "subscribed"; "subscribed"; "subscribed"; "subscribed";
          "hand off: c1 p[p|c,p|e); c2 p[p|b,p|d); c3 p[p|f,p|h)"; "c1 holds: none";
          "c2 holds: p[p|a,p|d)"; "c3 holds: p[p|f,p|k)"; "d1 holds: none";
          "c4 holds: p[p|m,p|p)"; "flush: c2 <- p|c=v | p[p|a,p|d)@5" ] ) ]

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
          Alcotest.test_case "refused subscriber dropped" `Quick test_refused_subscriber;
          Alcotest.test_case "fetch dedup" `Quick test_fetch_dedup;
          Alcotest.test_case "push leaves with the ack" `Quick test_push_with_ack;
        ] );
      ( "routes",
        [
          Alcotest.test_case "plan coverage" `Quick test_remote_plan;
          Alcotest.test_case "wildcard directory" `Quick test_wildcard_directory;
          Alcotest.test_case "routing decisions" `Quick test_routing_decisions;
          Alcotest.test_case "subscription table" `Quick test_subs_table;
        ] );
      ( "client",
        [
          Alcotest.test_case "dead port" `Quick test_client_dead_port;
          Alcotest.test_case "timeouts" `Quick test_client_timeout;
          Alcotest.test_case "version mismatch" `Quick test_client_version_mismatch;
          Alcotest.test_case "reconnect after a server close" `Quick test_client_reconnect;
          Alcotest.test_case "pipeline order" `Quick test_client_pipeline_order;
          Alcotest.test_case "no descriptor leak" `Quick test_client_no_fd_leak;
        ] );
    ]
