(* Tests for the wire protocol: codec primitives, message round trips,
   framing, and driving a Pequod engine through the loopback wire. *)

module Codec = Pequod_proto.Codec
module Message = Pequod_proto.Message
module Frame = Pequod_proto.Frame
module Server = Pequod_core.Server

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_varint_roundtrip () =
  List.iter
    (fun n ->
      let buf = Buffer.create 8 in
      Codec.put_varint buf n;
      let r = Codec.reader (Buffer.contents buf) in
      check_int (string_of_int n) n (Codec.get_varint r);
      check_bool "consumed" true (Codec.at_end r))
    [ 0; 1; 127; 128; 300; 16384; 1_000_000; max_int / 4 ]

let test_string_roundtrip () =
  List.iter
    (fun s ->
      let buf = Buffer.create 8 in
      Codec.put_string buf s;
      let r = Codec.reader (Buffer.contents buf) in
      Alcotest.(check string) "string" s (Codec.get_string r))
    [ ""; "x"; "hello|world"; String.make 1000 'a'; "\x00\x01\xfe" ]

let test_decode_errors () =
  let truncated = "\x05abc" in
  check_bool "truncated string" true
    (match Codec.get_string (Codec.reader truncated) with
    | exception Codec.Decode_error _ -> true
    | _ -> false);
  check_bool "empty varint" true
    (match Codec.get_varint (Codec.reader "") with
    | exception Codec.Decode_error _ -> true
    | _ -> false)

let requests =
  [
    Message.Hello { version = Message.protocol_version };
    Message.Hello { version = 0 };
    Message.Get "t|ann|0100|bob";
    Message.Put ("p|bob|0100", "hello world");
    Message.Remove "s|ann|bob";
    Message.Scan { lo = "t|ann|"; hi = "t|ann}" };
    Message.Add_join "t|<u>|<t> = copy p|<u>|<t>";
    Message.Fetch { table = "p"; lo = "p|a"; hi = "p|b"; subscriber = "10.0.0.7:7077" };
    Message.Put_batch [ ("p|bob|0100", "hello"); ("s|ann|bob", "1") ];
    Message.Put_batch [];
    Message.Notify_batch
      { items = [ ("p|bob|0100", Some "hi"); ("s|ann|bob", None) ]; stamps = [] };
    Message.Notify_batch
      { items = [ ("p|bob|0100", Some "hi") ];
        stamps = [ ("p", "p|bob|", "p|bob}", 12); ("s", "s|", "s}", 3) ] };
    Message.Notify_batch { items = []; stamps = [] };
    Message.Get_at { key = "t|ann|0100|bob"; min = [] };
    Message.Get_at
      { key = "t|ann|0100|bob"; min = [ ("p", "p|bob|", "p|bob}", 7) ] };
    Message.Scan_at { lo = "t|ann|"; hi = "t|ann}"; min = [] };
    Message.Scan_at
      { lo = "t|ann|"; hi = "t|ann}";
        min = [ ("p", "p|", "p}", 9); ("s", "s|ann|", "s|ann}", 2) ] };
    Message.Stats_full;
    Message.Sub_check { subscriber = "10.0.0.7:7077" };
    Message.Sub_check { subscriber = "" };
    Message.Dir_get;
    Message.Dir_watch { epoch = 0 };
    Message.Dir_watch { epoch = 42 };
    Message.Dir_update { epoch = 1; entries = [] };
    Message.Dir_update
      { epoch = 7;
        entries =
          [
            { Message.de_table = "s"; de_lo = "s|"; de_hi = "s|m";
              de_home = "10.0.0.1:7001"; de_replicas = [] };
            { Message.de_table = "s"; de_lo = "s|m"; de_hi = "s}";
              de_home = "10.0.0.2:7002";
              de_replicas = [ "10.0.0.3:7003"; "10.0.0.4:7004" ] };
          ] };
    Message.Migrate { table = "s"; lo = "s|m"; hi = "s}"; dest = "10.0.0.2:7002" };
  ]

let responses =
  [
    Message.Done;
    Message.Value None;
    Message.Value (Some "payload");
    Message.Pairs [ ("a", "1"); ("b", "2") ];
    Message.Pairs [];
    Message.Welcome { version = Message.protocol_version };
    Message.Subscribed { stamp = 4; pairs = [ ("p|bob|0100", "hi") ] };
    Message.Subscribed { stamp = 0; pairs = [] };
    Message.Stamps [ ("p", "p|bob|0100", "p|bob|0100\x00", 12) ];
    Message.Stamps [];
    Message.Stale [ ("p", "p|", "p}", 9); ("s", "s|", "s}", 2) ];
    Message.Stale [];
    Message.Sub_ranges [ ("p", "p|a", "p|b"); ("s", "s|", "s}") ];
    Message.Sub_ranges [];
    Message.Error "boom";
    Message.Dir_state { epoch = 0; entries = [] };
    Message.Dir_state
      { epoch = 3;
        entries =
          [
            { Message.de_table = "p"; de_lo = "p|"; de_hi = "p}";
              de_home = "10.0.0.1:7001"; de_replicas = [ "10.0.0.9:7009" ] };
          ] };
  ]

let test_message_roundtrip () =
  List.iter
    (fun req ->
      check_bool "request" true (Message.decode_request (Message.encode_request req) = req))
    requests;
  List.iter
    (fun resp ->
      check_bool "response" true (Message.decode_response (Message.encode_response resp) = resp))
    responses;
  (* [requests] holds every variant: each names its own rpc.<kind>
     counter, and every kind name belongs to a variant *)
  let kinds = List.sort_uniq compare (List.map Message.request_kind_index requests) in
  check_bool "request kinds" true (kinds = List.init (Array.length Message.request_kinds) Fun.id)

let test_bad_tags () =
  check_bool "bad request tag" true
    (match Message.decode_request "\xff" with
    | exception Message.Protocol_error _ -> true
    | _ -> false);
  check_bool "trailing bytes" true
    (match Message.decode_request (Message.encode_request (Message.Get "k") ^ "x") with
    | exception Message.Protocol_error _ -> true
    | _ -> false)

(* Retired tags stay reserved (the v1 integer stats, the single-key
   pushes): decoding them must fail loudly with a message naming the
   protocol version, never misparse. *)
let test_retired_tags () =
  let versioned what f =
    match f () with
    | exception Message.Protocol_error msg ->
      check_bool (what ^ " names the version") true
        (let needle = Printf.sprintf "v%d" Message.protocol_version in
         let rec find i =
           i + String.length needle <= String.length msg
           && (String.sub msg i (String.length needle) = needle || find (i + 1))
         in
         find 0)
    | _ -> Alcotest.failf "%s: retired tag decoded" what
  in
  versioned "notify_put request (0x07)" (fun () -> Message.decode_request "\x07");
  versioned "notify_remove request (0x08)" (fun () -> Message.decode_request "\x08");
  versioned "stats request (0x09)" (fun () -> Message.decode_request "\x09");
  versioned "stat_list response (0x85)" (fun () -> Message.decode_response "\x85\x00")

(* Version negotiation: the handshake accepts only an exact match, and
   the rejection is an [Error] the v2 client can still decode. *)
let test_handshake () =
  let s = Server.create () in
  (match Message.apply_to_server s (Message.Hello { version = Message.protocol_version }) with
  | Message.Welcome { version } -> check_int "welcome version" Message.protocol_version version
  | _ -> Alcotest.fail "matching hello not welcomed");
  match Message.apply_to_server s (Message.Hello { version = Message.protocol_version + 1 }) with
  | Message.Error msg ->
    let resp = Message.decode_response (Message.encode_response (Message.Error msg)) in
    check_bool "mismatch rejected through the wire" true (resp = Message.Error msg)
  | _ -> Alcotest.fail "version mismatch accepted"

let test_frame_roundtrip () =
  let d = Frame.decoder () in
  let wire = Frame.encode "hello" ^ Frame.encode "" ^ Frame.encode "world" in
  Alcotest.(check (list string)) "frames" [ "hello"; ""; "world" ] (Frame.feed d wire)

let test_frame_incremental () =
  let d = Frame.decoder () in
  let wire = Frame.encode "hello world" in
  (* feed one byte at a time: only the final byte completes the frame *)
  let n = String.length wire in
  let got = ref [] in
  String.iteri
    (fun i c ->
      let frames = Frame.feed d (String.make 1 c) in
      if i < n - 1 then check_int "no early frame" 0 (List.length frames)
      else got := frames)
    wire;
  Alcotest.(check (list string)) "assembled" [ "hello world" ] !got;
  check_int "drained" 0 (Frame.buffered d)

let test_frame_split_across_messages () =
  let d = Frame.decoder () in
  let wire = Frame.encode "aaaa" ^ Frame.encode "bbbb" in
  let mid = String.length wire - 3 in
  let f1 = Frame.feed d (String.sub wire 0 mid) in
  let f2 = Frame.feed d (String.sub wire mid 3) in
  Alcotest.(check (list string)) "first" [ "aaaa" ] f1;
  Alcotest.(check (list string)) "second" [ "bbbb" ] f2

(* Drive a real engine through the wire: the full client experience. *)
let test_loopback_server () =
  let s = Server.create () in
  let handler = Message.apply_to_server s in
  let rpc req =
    let resp, _, _ = Message.loopback handler req in
    resp
  in
  check_bool "add join" true
    (rpc (Message.Add_join "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>")
    = Message.Done);
  check_bool "bad join reported" true
    (match rpc (Message.Add_join "nonsense") with Message.Error _ -> true | _ -> false);
  (* v3: write acks carry the stamp vector for the written keys *)
  let is_ack = function Message.Stamps _ -> true | _ -> false in
  check_bool "put" true (is_ack (rpc (Message.Put ("s|ann|bob", "1"))));
  check_bool "put post" true (is_ack (rpc (Message.Put ("p|bob|0100", "hi"))));
  (match rpc (Message.Scan { lo = "t|ann|"; hi = "t|ann}" }) with
  | Message.Pairs [ ("t|ann|0100|bob", "hi") ] -> ()
  | _ -> Alcotest.fail "scan through the wire");
  (match rpc (Message.Get "t|ann|0100|bob") with
  | Message.Value (Some "hi") -> ()
  | _ -> Alcotest.fail "get through the wire");
  check_bool "remove" true (is_ack (rpc (Message.Remove "p|bob|0100")));
  (match rpc (Message.Scan { lo = "t|ann|"; hi = "t|ann}" }) with
  | Message.Pairs [] -> ()
  | _ -> Alcotest.fail "timeline empty after remove");
  (* a batch through the wire lands in source tables AND fires updaters *)
  check_bool "put_batch" true
    (is_ack
       (rpc
          (Message.Put_batch
             [ ("p|bob|0200", "yo"); ("p|bob|0150", "lo"); ("s|ann|cal", "1") ])));
  (match rpc (Message.Scan { lo = "t|ann|"; hi = "t|ann}" }) with
  | Message.Pairs [ ("t|ann|0150|bob", "lo"); ("t|ann|0200|bob", "yo") ] -> ()
  | _ -> Alcotest.fail "timeline after put_batch");
  (* notify batches interleave puts and removes in source-write order *)
  check_bool "notify_batch" true
    (rpc
       (Message.Notify_batch
          { items = [ ("p|bob|0150", None); ("p|bob|0150", Some "re") ]; stamps = [] })
    = Message.Done);
  (match rpc (Message.Get "t|ann|0150|bob") with
  | Message.Value (Some "re") -> ()
  | _ -> Alcotest.fail "notify_batch remove-then-put order");
  match rpc Message.Stats_full with
  | Message.Metrics metrics -> check_bool "metrics nonempty" true (metrics <> [])
  | _ -> Alcotest.fail "stats_full"

(* Deterministic randomized coverage of EVERY message variant (the qcheck
   generator below skips some), seeded from lib/util's Rng so failures
   reproduce: each random message must round-trip exactly, and every
   strict prefix of its encoding must raise — a truncated buffer can
   never silently decode. *)
let test_rng_all_variants () =
  let rng = Rng.create 0xC0DEC in
  let rand_string ?(maxlen = 24) () =
    String.init (Rng.int rng (maxlen + 1)) (fun _ -> Char.chr (Rng.int rng 256))
  in
  let rand_pairs () =
    List.init (Rng.int rng 4) (fun _ -> (rand_string (), rand_string ()))
  in
  let rand_stamps () =
    List.init (Rng.int rng 4) (fun _ ->
        (rand_string (), rand_string (), rand_string (), Rng.int rng 1_000_000))
  in
  let rand_entries () =
    List.init (Rng.int rng 3) (fun _ ->
        { Message.de_table = rand_string (); de_lo = rand_string ();
          de_hi = rand_string (); de_home = rand_string ();
          de_replicas = List.init (Rng.int rng 3) (fun _ -> rand_string ()) })
  in
  let rand_request variant =
    match variant with
    | 0 -> Message.Get (rand_string ())
    | 1 -> Message.Put (rand_string (), rand_string ())
    | 2 -> Message.Remove (rand_string ())
    | 3 -> Message.Scan { lo = rand_string (); hi = rand_string () }
    | 4 -> Message.Add_join (rand_string ())
    | 5 ->
      Message.Fetch
        { table = rand_string (); lo = rand_string (); hi = rand_string ();
          subscriber = rand_string () }
    | 6 -> Message.Put_batch (rand_pairs ())
    | 7 ->
      Message.Notify_batch
        { items =
            List.init (Rng.int rng 4) (fun _ ->
                ( rand_string (),
                  if Rng.int rng 2 = 0 then Some (rand_string ()) else None ));
          stamps = rand_stamps () }
    | 8 -> Message.Hello { version = Rng.int rng 1_000 }
    | 9 -> Message.Sub_check { subscriber = rand_string () }
    | 10 -> Message.Dir_get
    | 11 -> Message.Dir_watch { epoch = Rng.int rng 1_000 }
    | 12 -> Message.Dir_update { epoch = Rng.int rng 1_000; entries = rand_entries () }
    | 13 ->
      Message.Migrate
        { table = rand_string (); lo = rand_string (); hi = rand_string ();
          dest = rand_string () }
    | 14 -> Message.Get_at { key = rand_string (); min = rand_stamps () }
    | 15 ->
      Message.Scan_at { lo = rand_string (); hi = rand_string (); min = rand_stamps () }
    | _ -> Message.Stats_full
  in
  let rand_response variant =
    match variant with
    | 0 -> Message.Done
    | 1 -> Message.Value None
    | 2 -> Message.Value (Some (rand_string ()))
    | 3 -> Message.Pairs (rand_pairs ())
    | 4 -> Message.Welcome { version = Rng.int rng 1_000 }
    | 5 -> Message.Subscribed { stamp = Rng.int rng 1_000_000; pairs = rand_pairs () }
    | 6 ->
      Message.Sub_ranges
        (List.init (Rng.int rng 4) (fun _ -> (rand_string (), rand_string (), rand_string ())))
    | 7 -> Message.Dir_state { epoch = Rng.int rng 1_000; entries = rand_entries () }
    | 8 -> Message.Stamps (rand_stamps ())
    | 9 -> Message.Stale (rand_stamps ())
    | _ -> Message.Error (rand_string ())
  in
  let truncations_raise what wire decode =
    for cut = 0 to String.length wire - 1 do
      match decode (String.sub wire 0 cut) with
      | exception Message.Protocol_error _ -> ()
      | _ -> Alcotest.failf "%s: prefix of %d/%d bytes decoded" what cut (String.length wire)
    done
  in
  for round = 1 to 50 do
    for variant = 0 to 16 do
      let req = rand_request variant in
      let wire = Message.encode_request req in
      check_bool "request round-trips" true (Message.decode_request wire = req);
      if round <= 5 then truncations_raise "request" wire Message.decode_request
    done;
    for variant = 0 to 10 do
      let resp = rand_response variant in
      let wire = Message.encode_response resp in
      check_bool "response round-trips" true (Message.decode_response wire = resp);
      if round <= 5 then truncations_raise "response" wire Message.decode_response
    done
  done

let prop_message_roundtrip =
  let open QCheck2 in
  let str = Gen.string_size ~gen:Gen.printable (Gen.int_bound 40) in
  let req_gen =
    Gen.oneof
      [
        Gen.map (fun k -> Message.Get k) str;
        Gen.map2 (fun k v -> Message.Put (k, v)) str str;
        Gen.map (fun k -> Message.Remove k) str;
        Gen.map2 (fun lo hi -> Message.Scan { lo; hi }) str str;
        Gen.map (fun t -> Message.Add_join t) str;
        Gen.map2
          (fun (t, l) h -> Message.Fetch { table = t; lo = l; hi = h; subscriber = "cb:3" })
          (Gen.pair str str) str;
        Gen.map (fun v -> Message.Hello { version = String.length v }) str;
      ]
  in
  Test.make ~name:"arbitrary requests round-trip" ~count:500 req_gen (fun req ->
      Message.decode_request (Message.encode_request req) = req)

let prop_frames =
  let open QCheck2 in
  Test.make ~name:"frame stream reassembles under arbitrary chunking" ~count:200
    Gen.(pair (list_size (int_range 0 10) (string_size ~gen:char (int_bound 50))) (int_range 1 7))
    (fun (bodies, chunk) ->
      let wire = String.concat "" (List.map Frame.encode bodies) in
      let d = Frame.decoder () in
      let out = ref [] in
      let i = ref 0 in
      while !i < String.length wire do
        let n = min chunk (String.length wire - !i) in
        out := !out @ Frame.feed d (String.sub wire !i n);
        i := !i + n
      done;
      !out = bodies && Frame.buffered d = 0)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "proto"
    [
      ( "codec",
        [
          Alcotest.test_case "varint" `Quick test_varint_roundtrip;
          Alcotest.test_case "string" `Quick test_string_roundtrip;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
        ] );
      ( "message",
        [
          Alcotest.test_case "roundtrip" `Quick test_message_roundtrip;
          Alcotest.test_case "bad tags" `Quick test_bad_tags;
          Alcotest.test_case "retired v1 tags rejected" `Quick test_retired_tags;
          Alcotest.test_case "version handshake" `Quick test_handshake;
          Alcotest.test_case "all variants + truncation (rng)" `Quick test_rng_all_variants;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "incremental" `Quick test_frame_incremental;
          Alcotest.test_case "split" `Quick test_frame_split_across_messages;
        ] );
      ("loopback", [ Alcotest.test_case "engine over wire" `Quick test_loopback_server ]);
      ("props", qsuite [ prop_message_roundtrip; prop_frames ]);
    ]
