(* The asynchronous remote read path (Remote.attach): parked scans,
   fan-out fetch batching, and single-flight coalescing, driven over
   real TCP sockets in one process with manually-stepped event loops —
   a home server and a compute server whose scans miss. *)

module Net_server = Pequod_server_lib.Net_server
module Remote = Pequod_server_lib.Remote
module Directory = Pequod_server_lib.Directory
module Migration = Pequod_server_lib.Migration
module Node = Pequod_server_lib.Node
module Peer = Pequod_server_lib.Peer
module Server = Pequod_core.Server
module Message = Pequod_proto.Message
module Frame = Pequod_proto.Frame
(* Rng comes unwrapped from pequod_util *)

let check_bool = Alcotest.(check bool)

let timeline_join = "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

let with_server ~joins f =
  let t = Net_server.create ~port:0 ~joins ~memory_limit:None () in
  Fun.protect ~finally:(fun () -> Net_server.stop t) (fun () -> f t)

let addr_of t = Printf.sprintf "127.0.0.1:%d" (Net_server.port t)

(* route [t] by an epoch-1 directory of [entries] *)
let attach_entries t entries =
  let dir = Directory.create () in
  (match Directory.install dir ~epoch:1 ~entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Remote.attach ~node:(Net_server.node t) ~self_addr:(addr_of t) ~check_every:2.0 dir

(* route [compute] by the epoch-1 directory [--partition specs] fix *)
let attach_specs compute specs =
  match Remote.entries_of_specs ~self_addr:(addr_of compute) specs with
  | Ok entries -> attach_entries compute entries
  | Error e -> Alcotest.fail e

let connect t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Net_server.port t));
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  fd

let write_all fd s =
  let sent = ref 0 in
  while !sent < String.length s do
    sent := !sent + Unix.write_substring fd s !sent (String.length s - !sent)
  done

(* write [reqs] as one pipelined burst, then step every server in
   [servers] until the same number of raw response frames arrived *)
let rec pipeline_raw ~servers fd reqs =
  write_all fd
    (String.concat "" (List.map (fun r -> Frame.encode (Message.encode_request r)) reqs));
  await_frames ~servers fd (List.length reqs)

(* step every server in [servers] until [want] raw response frames
   arrived on [fd] *)
and await_frames ~servers fd want =
  let decoder = Frame.decoder () in
  let buf = Bytes.create 65536 in
  let frames = ref [] in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while List.length !frames < want do
    if Unix.gettimeofday () > deadline then failwith "pipeline_raw timeout";
    List.iter (fun t -> Net_server.step ~timeout:0.002 t) servers;
    match Unix.select [ fd ] [] [] 0.002 with
    | [ _ ], _, _ ->
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      if n = 0 then failwith "connection closed";
      frames := !frames @ Frame.feed decoder (Bytes.sub_string buf 0 n)
    | _ -> ()
  done;
  !frames

let rpc ~servers fd req =
  match pipeline_raw ~servers fd [ req ] with
  | [ frame ] -> Message.decode_response frame
  | _ -> assert false

(* let in-flight pushes / fetch completions drain *)
let settle servers =
  for _ = 1 to 10 do
    List.iter (fun t -> Net_server.step ~timeout:0.001 t) servers
  done

let counter t name = Server.counter (Net_server.engine t) name

(* N pipelined scans of the same cold timeline must cost exactly one
   wire Fetch per distinct missing source range: the first parked scan
   issues each fetch, the other N-1 join the in-flight entry
   ([fetch.coalesced]), and every response is identical. The timeline
   join misses in two waves -- the check source (s|) first, then, once
   its feed names the poster, the copy source (p|) -- so each of the
   two ranges is single-flighted across all N waiters. *)
let test_single_flight () =
  with_server ~joins:[] @@ fun home ->
  with_server ~joins:[ timeline_join ] @@ fun compute ->
  let h = Net_server.engine home in
  Server.mark_present h ~table:"s" ~lo:"s|" ~hi:"s}";
  Server.mark_present h ~table:"p" ~lo:"p|" ~hi:"p}";
  Server.put h "s|ann|bob" "1";
  Server.put h "p|bob|0000000007" "hello";
  attach_specs compute [ "s@" ^ addr_of home; "p@" ^ addr_of home ];
  let fd = connect compute in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let n = 5 in
  let servers = [ compute; home ] in
  let frames =
    pipeline_raw ~servers fd
      (List.init n (fun _ -> Message.Scan { lo = "t|ann|"; hi = "t|ann}" }))
  in
  let expected = Message.Pairs [ ("t|ann|0000000007|bob", "hello") ] in
  List.iteri
    (fun i frame ->
      check_bool (Printf.sprintf "response %d" i) true
        (Message.decode_response frame = expected))
    frames;
  (* two distinct missing ranges (s|ann, then p|bob), each fetched
     over the wire exactly once on behalf of all five waiters *)
  check_bool "one wire fetch per range" true (counter home "peer.fetch.in" = 2);
  check_bool "coalesced joins" true (counter compute "fetch.coalesced" = 2 * (n - 1));
  check_bool "all scans parked" true (counter compute "scan.parked" = n)

(* A parked scan whose home is unreachable answers Error without
   wedging the connection: requests pipelined behind it still answer,
   in order, and the connection stays usable afterwards. The timeline
   join's check source (s|) is routed to an address nothing listens on,
   so the scan parks and its burst fetch fails fast. *)
let test_park_failure () =
  with_server ~joins:[ timeline_join ] @@ fun compute ->
  (* port 9 on loopback: nothing listens; connect is refused at once *)
  attach_specs compute [ "s@127.0.0.1:9"; "p@127.0.0.1:9" ];
  let fd = connect compute in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let servers = [ compute ] in
  (match
     List.map Message.decode_response
       (pipeline_raw ~servers fd
          [ Message.Scan { lo = "t|ann|"; hi = "t|ann}" };
            Message.Put ("other|k", "1");
            Message.Get "other|k" ])
   with
  | [ Message.Error _; (Message.Done | Message.Stamps _); Message.Value (Some "1") ] -> ()
  | rs ->
    Alcotest.failf "expected [Error; Done; Value], got %d responses: %s"
      (List.length rs)
      (String.concat ", "
         (List.map
            (function
              | Message.Error _ -> "Error"
              | Message.Done -> "Done"
              | Message.Stamps _ -> "Stamps"
              | Message.Value _ -> "Value"
              | Message.Pairs _ -> "Pairs"
              | _ -> "?")
            rs)));
  check_bool "failed scan parked" true (counter compute "scan.parked" >= 1)

(* ------------------------------------------------------------------ *)
(* remote == single-server equivalence                                 *)

let users = [| "ann"; "bob"; "cat"; "dan"; "eve" |]

(* One random interleaving of base writes and timeline reads, the same
   for both modes at the same seed: returns the raw wire response frames
   of every read, in order. [`Remote] writes to a home and reads from a
   compute fetching from it on the asynchronous path; [`Single] sends
   everything to one server that owns s and p and runs the join itself
   — the reference, with no remote path at all. *)
let run_transcript mode seed =
  with_server ~joins:[] @@ fun home ->
  with_server ~joins:[ timeline_join ] @@ fun compute ->
  let writer =
    match mode with
    | `Single -> compute
    | `Remote ->
      let h = Net_server.engine home in
      Server.mark_present h ~table:"s" ~lo:"s|" ~hi:"s}";
      Server.mark_present h ~table:"p" ~lo:"p|" ~hi:"p}";
      attach_specs compute [ "s@" ^ addr_of home; "p@" ^ addr_of home ];
      home
  in
  let servers = [ compute; home ] in
  let hfd = connect writer in
  let cfd = connect compute in
  Fun.protect
    ~finally:(fun () ->
      Unix.close hfd;
      Unix.close cfd)
  @@ fun () ->
  let rng = Rng.create seed in
  let transcript = ref [] in
  let read_compute reqs =
    transcript := !transcript @ pipeline_raw ~servers cfd reqs
  in
  for _ = 1 to 40 do
    match Rng.int rng 100 with
    | n when n < 25 ->
      let k = Printf.sprintf "s|%s|%s" (Rng.pick rng users) (Rng.pick rng users) in
      ignore (rpc ~servers hfd (Message.Put (k, "1")));
      settle servers
    | n when n < 45 ->
      let k =
        Printf.sprintf "p|%s|%010d" (Rng.pick rng users) (Rng.int rng 50)
      in
      ignore (rpc ~servers hfd (Message.Put (k, Printf.sprintf "m%d" (Rng.int rng 10))));
      settle servers
    | n when n < 55 ->
      let k = Printf.sprintf "s|%s|%s" (Rng.pick rng users) (Rng.pick rng users) in
      ignore (rpc ~servers hfd (Message.Remove k));
      settle servers
    | n when n < 80 ->
      let u = Rng.pick rng users in
      read_compute [ Message.Scan { lo = "t|" ^ u ^ "|"; hi = "t|" ^ u ^ "}" } ]
    | _ ->
      (* a pipelined burst of reads over several users: different
         parked scans in flight at once *)
      read_compute
        (List.init 3 (fun _ ->
             let u = Rng.pick rng users in
             Message.Scan { lo = "t|" ^ u ^ "|"; hi = "t|" ^ u ^ "}" }))
  done;
  (* final whole-table read *)
  read_compute [ Message.Scan { lo = "t|"; hi = "t}" } ];
  !transcript

let test_equivalence () =
  List.iter
    (fun seed ->
      let reference = run_transcript `Single seed in
      let remote = run_transcript `Remote seed in
      check_bool
        (Printf.sprintf "seed %d: same transcript length" seed)
        true
        (List.length reference = List.length remote);
      List.iteri
        (fun i (s, a) ->
          if not (String.equal s a) then
            Alcotest.failf "seed %d: response %d differs from the single server" seed i)
        (List.combine reference remote))
    [ 1; 7; 42; 1234 ]

(* ------------------------------------------------------------------ *)
(* No step waits on a peer                                             *)

let entry table home =
  { Message.de_table = table; de_lo = table ^ "|"; de_hi = table ^ "}"; de_home = home;
    de_replicas = [] }

(* [a] routes by an epoch-1 directory homing p at [b] and s at itself;
   [b] holds the same directory (it answers migration barriers) *)
let with_pair ~backend f =
  let make () = Net_server.create ~backend ~port:0 ~joins:[] ~memory_limit:None () in
  let a = make () in
  Fun.protect ~finally:(fun () -> Net_server.stop a) @@ fun () ->
  let b = make () in
  Fun.protect ~finally:(fun () -> Net_server.stop b) @@ fun () ->
  let entries = [ entry "p" (addr_of b); entry "s" (addr_of a) ] in
  attach_entries a entries;
  attach_entries b entries;
  Server.put (Net_server.engine b) "p|a|1" "x";
  Server.put (Net_server.engine a) "s|a|1" "y";
  f a b

(* step [t] [n] times, failing if any single step takes over 50 ms *)
let step_quickly t n =
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    Net_server.step ~timeout:0.01 t;
    let dt = Unix.gettimeofday () -. t0 in
    if dt > 0.05 then Alcotest.failf "a step took %.0f ms" (dt *. 1000.)
  done

(* the raw answers of [reqs] from one server holding all the data *)
let single_answers reqs =
  with_server ~joins:[] @@ fun s ->
  Server.put (Net_server.engine s) "p|a|1" "x";
  Server.put (Net_server.engine s) "s|a|1" "y";
  let fd = connect s in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  pipeline_raw ~servers:[ s ] fd reqs

(* A's directory homes p at B. While B is not stepped, one pipelined
   connection to A carries a forwarded Put, a forwarded Get, a scan cut
   into a remote and two local segments, and a local Get: every step of
   A stays short. Once B runs, the answers arrive in pipeline order and
   equal a single server's. *)
let test_step_never_waits backend () =
  with_pair ~backend @@ fun a b ->
  let reqs =
    [ Message.Put ("p|b|1", "z");
      Message.Get "p|a|1";
      Message.Scan { lo = "p|"; hi = "s}" };
      Message.Get "s|a|1" ]
  in
  let fd = connect a in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  write_all fd
    (String.concat "" (List.map (fun r -> Frame.encode (Message.encode_request r)) reqs));
  step_quickly a 20;
  check_bool "nothing answered out of order" true
    (match Unix.select [ fd ] [] [] 0.0 with [], _, _ -> true | _ -> false);
  let frames = await_frames ~servers:[ a; b ] fd (List.length reqs) in
  List.iteri
    (fun i (got, want) ->
      if not (String.equal got want) then
        Alcotest.failf "answer %d differs from the single server's" i)
    (List.combine frames (single_answers reqs));
  check_bool "forwarded" true (counter a "migrate.redirects" >= 3)

(* A Migrate to an unstepped B leaves A serving another connection: a
   read answers within one step. During the flip a write to the moving
   range waits in its slot; once B runs, the migration completes, the
   write lands at the new home, and reads of the moved range reach it. *)
let test_migrate_never_waits backend () =
  with_pair ~backend @@ fun a b ->
  let ctl = connect a and reader = connect a in
  Fun.protect
    ~finally:(fun () ->
      Unix.close ctl;
      Unix.close reader)
  @@ fun () ->
  write_all ctl
    (Frame.encode
       (Message.encode_request
          (Message.Migrate { table = "s"; lo = "s|"; hi = "s}"; dest = addr_of b })));
  step_quickly a 5;
  write_all reader (Frame.encode (Message.encode_request (Message.Get "s|a|1")));
  step_quickly a 1;
  (match Unix.select [ reader ] [] [] 0.5 with
  | [ _ ], _, _ -> (
    let buf = Bytes.create 4096 in
    let n = Unix.read reader buf 0 4096 in
    match Frame.feed (Frame.decoder ()) (Bytes.sub_string buf 0 n) with
    | [ frame ] ->
      check_bool "read served during the copy" true
        (Message.decode_response frame = Message.Value (Some "y"))
    | _ -> Alcotest.fail "one answer")
  | _ -> Alcotest.fail "the read waited on the migration");
  (* let B apply the copy and answer its barrier: A starts the flip and
     holds writes to the moving range until B has taken it over *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Server.get (Net_server.engine b) "s|a|1" <> Some "y" do
    if Unix.gettimeofday () > deadline then Alcotest.fail "the copy never landed";
    Net_server.step ~timeout:0.01 b
  done;
  step_quickly a 5;
  write_all reader (Frame.encode (Message.encode_request (Message.Put ("s|a|2", "w"))));
  step_quickly a 5;
  check_bool "a write to the moving range waits for the flip" true
    (match Unix.select [ reader ] [] [] 0.0 with [], _, _ -> true | _ -> false);
  (match Message.decode_response (List.hd (await_frames ~servers:[ a; b ] ctl 1)) with
  | Message.Pairs stats ->
    check_bool "one key moved" true (List.assoc_opt "keys_moved" stats = Some "1")
  | _ -> Alcotest.fail "migration failed");
  (match Message.decode_response (List.hd (await_frames ~servers:[ a; b ] reader 1)) with
  | Message.Stamps _ | Message.Done ->
    check_bool "the held write reached the new home" true
      (Server.get (Net_server.engine b) "s|a|2" = Some "w")
  | _ -> Alcotest.fail "the held write failed");
  match rpc ~servers:[ a; b ] reader (Message.Get "s|a|1") with
  | Message.Value (Some "y") -> check_bool "moved" true (counter a "migrate.redirects" >= 1)
  | _ -> Alcotest.fail "read after the migration"

(* A compute C subscribed to A's s range keeps getting pushes after the
   range migrates to B: the flip hands C's subscription over, so B's
   Sub_check lists it and a write at B reaches C with no heal round. *)
let test_migrate_hands_subscribers_over () =
  with_pair ~backend:`Epoll @@ fun a b ->
  with_server ~joins:[ timeline_join ] @@ fun c ->
  attach_specs c
    [ Printf.sprintf "s@%s" (addr_of a); Printf.sprintf "p@%s" (addr_of b) ];
  let servers = [ a; b; c ] in
  let cfd = connect c and afd = connect a and bfd = connect b in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close [ cfd; afd; bfd ])
  @@ fun () ->
  (match rpc ~servers cfd (Message.Scan { lo = "t|a|"; hi = "t|a}" }) with
  | Message.Pairs _ -> ()
  | _ -> Alcotest.fail "timeline scan");
  let subscribed fd =
    match rpc ~servers fd (Message.Sub_check { subscriber = addr_of c }) with
    | Message.Sub_ranges ranges -> List.exists (fun (table, _, _) -> table = "s") ranges
    | _ -> Alcotest.fail "Sub_check"
  in
  check_bool "C subscribed at A" true (subscribed afd);
  (match
     rpc ~servers afd (Message.Migrate { table = "s"; lo = "s|"; hi = "s}"; dest = addr_of b })
   with
  | Message.Pairs _ -> ()
  | _ -> Alcotest.fail "migration failed");
  check_bool "C's subscription moved to B" true (subscribed bfd);
  check_bool "and left A" false (subscribed afd);
  let pushed = counter c "peer.notify.in" in
  (match rpc ~servers bfd (Message.Put ("s|a|2", "z")) with
  | Message.Done | Message.Stamps _ -> ()
  | _ -> Alcotest.fail "put at the new home");
  settle servers;
  check_bool "the write at B is pushed to C" true (counter c "peer.notify.in" > pushed);
  check_bool "C holds the pushed key" true
    (match Server.scan_result (Net_server.engine c) ~lo:"s|a|" ~hi:"s|a}" with
    | `Ok pairs -> List.assoc_opt "s|a|2" pairs = Some "z"
    | `Missing _ -> false)

(* ------------------------------------------------------------------ *)
(* Migration phases, pinned by leaving the destination unstepped       *)

let phase t = Option.map Migration.phase (Net_server.node t).Node.migration
let send fd reqs =
  write_all fd
    (String.concat "" (List.map (fun r -> Frame.encode (Message.encode_request r)) reqs))
let migrate_s dest = Message.Migrate { table = "s"; lo = "s|"; hi = "s}"; dest = addr_of dest }

(* Start [a]'s migration of s to [b] on [ctl] and step both until [a] is
   flipping: [b] has applied the copy and answered its barrier, and has
   not yet seen the flip's own barrier. *)
let migrate_to_flip a b ctl =
  send ctl [ migrate_s b ];
  step_quickly a 2;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while phase a <> Some Migration.Flipping do
    if Unix.gettimeofday () > deadline then Alcotest.fail "the flip never started";
    Net_server.step ~timeout:0.01 b;
    Net_server.step ~timeout:0.01 a
  done

(* A write riding the Migrate's own burst is applied while A copies: it
   is captured and replayed to B as delta. *)
let test_copy_write_replayed () =
  with_pair ~backend:`Epoll @@ fun a b ->
  let ctl = connect a in
  Fun.protect ~finally:(fun () -> Unix.close ctl) @@ fun () ->
  send ctl [ migrate_s b; Message.Put ("s|a|2", "w") ];
  step_quickly a 2;
  check_bool "pinned on B's barrier" true (phase a = Some Migration.Awaiting_barrier);
  match List.map Message.decode_response (await_frames ~servers:[ a; b ] ctl 2) with
  | [ Message.Pairs _; (Message.Done | Message.Stamps _) ] ->
    check_bool "replayed as delta" true (counter a "migrate.delta_replayed" >= 1);
    check_bool "B holds the write" true (Server.get (Net_server.engine b) "s|a|2" = Some "w")
  | _ -> Alcotest.fail "the migration or the write failed"

(* While A flips, B's directory still names A: a Dir_watch to B answers
   the old epoch until A installs the new one and tells B. *)
let test_flip_keeps_old_epoch () =
  with_pair ~backend:`Epoll @@ fun a b ->
  let ctl = connect a and bfd = connect b in
  Fun.protect ~finally:(fun () -> List.iter Unix.close [ ctl; bfd ]) @@ fun () ->
  migrate_to_flip a b ctl;
  let watched () =
    match rpc ~servers:[ b ] bfd (Message.Dir_watch { epoch = 0 }) with
    | Message.Dir_state { epoch; _ } -> epoch
    | _ -> Alcotest.fail "Dir_watch"
  in
  check_bool "B answers the old epoch" true (watched () = 1);
  check_bool "A is still flipping" true (phase a = Some Migration.Flipping);
  (match Message.decode_response (List.hd (await_frames ~servers:[ a; b ] ctl 1)) with
  | Message.Pairs stats -> check_bool "epoch 2" true (List.assoc_opt "epoch" stats = Some "2")
  | _ -> Alcotest.fail "migration failed");
  check_bool "then the new one" true (watched () = 2)

(* B stops once its copy landed, while A flips: the Migrate answers
   Error, the write A held applies at A, A's epoch stays, and a new
   Migrate to a fresh server C succeeds. *)
let test_flip_destination_lost () =
  with_pair ~backend:`Epoll @@ fun a b ->
  with_server ~joins:[] @@ fun c ->
  attach_entries c (Node.entries (Net_server.node a));
  let ctl = connect a and writer = connect a in
  Fun.protect ~finally:(fun () -> List.iter Unix.close [ ctl; writer ]) @@ fun () ->
  migrate_to_flip a b ctl;
  send writer [ Message.Put ("s|a|2", "w") ];
  step_quickly a 3;
  check_bool "the write is held" true
    (match Unix.select [ writer ] [] [] 0.0 with [], _, _ -> true | _ -> false);
  Net_server.stop b;
  (match Message.decode_response (List.hd (await_frames ~servers:[ a ] ctl 1)) with
  | Message.Error _ -> ()
  | _ -> Alcotest.fail "the Migrate must fail");
  (match Message.decode_response (List.hd (await_frames ~servers:[ a ] writer 1)) with
  | Message.Done | Message.Stamps _ -> ()
  | _ -> Alcotest.fail "the held write failed");
  check_bool "applied at A" true (Server.get (Net_server.engine a) "s|a|2" = Some "w");
  check_bool "A's epoch unchanged" true (Directory.epoch (Net_server.node a).Node.dir = 1);
  match rpc ~servers:[ a; c ] ctl (migrate_s c) with
  | Message.Pairs stats ->
    check_bool "both keys moved to C" true (List.assoc_opt "keys_moved" stats = Some "2")
  | _ -> Alcotest.fail "the migration to C failed"

(* A migrates the top of its s range to B. A keeps owning the rest,
   keeps no copy of what moved (one could come back to life if the range
   moved back), and refuses a Fetch straddling the moved boundary: a
   follower lagging the flip would otherwise get a copy of the moved
   part that no write reaches. *)
let test_partial_migration () =
  with_pair ~backend:`Epoll @@ fun a b ->
  let ea = Net_server.engine a in
  Server.put ea "s|z|1" "w";
  let ctl = connect a in
  Fun.protect ~finally:(fun () -> Unix.close ctl) @@ fun () ->
  let migrate = Message.Migrate { table = "s"; lo = "s|m"; hi = "s}"; dest = addr_of b } in
  (match rpc ~servers:[ a; b ] ctl migrate with
  | Message.Pairs _ -> ()
  | _ -> Alcotest.fail "migration failed");
  settle [ a; b ];
  check_bool "A owns the rest" true (Server.present_ranges ea = [ ("s", "s|", "s|m") ]);
  check_bool "A keeps no copy of what moved" true (Server.scan ea ~lo:"s|m" ~hi:"s}" = []);
  check_bool "B holds it" true (Server.get (Net_server.engine b) "s|z|1" = Some "w");
  let fetch lo hi =
    match rpc ~servers:[ a; b ] ctl (Message.Fetch { table = "s"; lo; hi; subscriber = "" }) with
    | Message.Subscribed _ -> true
    | _ -> false
  in
  check_bool "the rest is granted" true (fetch "s|" "s|m");
  check_bool "a straddling range is refused" false (fetch "s|" "s}")

(* A migration of many keys: the flip answers, then A removes the moved
   keys a bounded number per step, not in one pass that would stall its
   loop. It keeps a key applied there since (the range moving back) and
   a fetched copy, which its feed reconciled; a piece that comes back
   owned is still cleaned of keys that did not come back with it. *)
let test_removal_in_chunks () =
  with_pair ~backend:`Epoll @@ fun a b ->
  let ea = Net_server.engine a in
  Server.put_batch ea (List.init 5000 (fun i -> (Printf.sprintf "s|k%04d" i, "v")));
  let resident () =
    let n = ref 0 in
    Server.iter_pairs ea (fun k _ -> if String.starts_with ~prefix:"s|" k then incr n);
    !n
  in
  let ctl = connect a in
  Fun.protect ~finally:(fun () -> Unix.close ctl) @@ fun () ->
  (match rpc ~servers:[ a; b ] ctl (migrate_s b) with
  | Message.Pairs _ -> ()
  | _ -> Alcotest.fail "migration failed");
  check_bool "removing after the answer" true (phase a = Some Migration.Removing);
  Node.apply_oneway (Net_server.node a)
    (Message.Notify_batch { items = [ ("s|zz", Some "back") ]; stamps = [] });
  Server.feed_base ea ~table:"s" ~lo:"s|k4990" ~hi:"s|k5000" ~stamp:0 [ ("s|k4995", "fetched") ];
  Server.mark_present ea ~table:"s" ~lo:"s|k1000" ~hi:"s|k1010";
  let steps = ref 0 in
  while phase a <> None do
    let before = resident () in
    Net_server.step ~timeout:0.001 a;
    incr steps;
    check_bool "at most 16 per step" true (before - resident () <= 16)
  done;
  check_bool "removed over many steps" true (!steps >= 50);
  check_bool "only the arrival and the fetched copy are left" true
    (resident () = 2 && Server.get ea "s|zz" = Some "back"
    && Server.get ea "s|k4995" = Some "fetched");
  check_bool "B holds the range" true (Server.get (Net_server.engine b) "s|k4999" = Some "v")

(* ------------------------------------------------------------------ *)
(* One core over a scripted outbound record, on a manual clock          *)

(* A core at "c" whose outbound record logs every call (address,
   request, continuation) and answers it at once with
   [answer node req], if that is [Some]. *)
let scripted_core ?(joins = []) answer =
  let clock = ref 1000.0 in
  let config = Pequod_core.Config.default () in
  config.Pequod_core.Config.now <- (fun () -> !clock);
  let engine = Server.create ~config () in
  List.iter (Server.add_join_exn engine) joins;
  let calls = ref [] and self = ref None in
  let out =
    { Peer.call =
        (fun _ addr req k ->
          calls := (addr, req, k) :: !calls;
          Option.iter (fun resp -> k (Ok resp)) (answer (Option.get !self) req));
      post = (fun _ _ -> ()) }
  in
  let node = Node.create ~out engine in
  self := Some node;
  (node, clock, calls)

let ask node req =
  let answer = ref None in
  Node.handle node { Node.injected = false; alive = true } req (fun r -> answer := Some r);
  answer

(* s and p homed at "home", fixed at epoch 1 *)
let attach_home ?seed node =
  let dir = Directory.create () in
  if seed = None then
    ignore (Directory.install dir ~epoch:1 ~entries:[ entry "s" "home"; entry "p" "home" ]);
  Remote.attach ~node ~self_addr:"c" ~check_every:1.0 ?seed dir

let fetches calls =
  List.length (List.filter (function _, Message.Fetch _, _ -> true | _ -> false) !calls)

(* A follower's first poll leaves from [attach], and until its answer
   lands the follower refuses every keyed request: routed over no
   entries, a write homed elsewhere would be applied here and lost. *)
let test_unsynced_follower () =
  let node, _, calls = scripted_core (fun _ _ -> None) in
  attach_home ~seed:"seed" node;
  let poll =
    List.find_map (function "seed", Message.Dir_watch _, k -> Some k | _ -> None) !calls
  in
  check_bool "polled at attach" true (poll <> None);
  List.iter
    (fun req ->
      match !(ask node req) with
      | Some (Message.Error _) -> ()
      | _ -> Alcotest.fail "an unsynced follower served a keyed request")
    [ Message.Put ("s|a|1", "v"); Message.Put_batch [ ("s|a|2", "v") ]; Message.Remove "s|a|1";
      Message.Get "s|a|1"; Message.Scan { lo = "s|"; hi = "s}" } ];
  check_bool "nothing applied" true (Server.size (Node.engine node) = 0);
  Option.get poll
    (Ok (Message.Dir_state { epoch = 1; entries = [ entry "s" "home"; entry "p" "home" ] }));
  ignore (ask node (Message.Put ("s|a|1", "v")));
  check_bool "synced, the write goes home" true
    (List.exists (function "home", Message.Put _, _ -> true | _ -> false) !calls)

(* A push the home sent after its snapshot can land before the
   snapshot: the answer hook applies it through [apply_oneway] first.
   One [Fetch] per range, never a refetch: the Fetcher replays exactly
   the logged batches whose trailer is above the snapshot's stamp 3.
   (a) a batch at 5 carries a post the snapshot lacks: replayed, and the
   range records 5. (b) a batch at 2 sets a key the snapshot holds
   newer: skipped (replaying it would revert the key), the range
   records 3. *)
let test_snapshot_replays_pushes () =
  let table, lo, hi = ("p", "p|bob|", "p|bob}") in
  List.iter
    (fun (name, push, trailer, snapshot, want, want_stamp) ->
      let node, _, calls =
        scripted_core ~joins:[ timeline_join ] (fun node -> function
          | Message.Fetch { table = "s"; _ } ->
            Some (Message.Subscribed { stamp = 1; pairs = [ ("s|ann|bob", "1") ] })
          | Message.Fetch _ ->
            Node.apply_oneway node
              (Message.Notify_batch { items = [ push ]; stamps = [ (table, lo, hi, trailer) ] });
            Some (Message.Subscribed { stamp = 3; pairs = snapshot })
          | _ -> None)
      in
      attach_home node;
      (match !(ask node (Message.Scan { lo = "t|ann|"; hi = "t|ann}" })) with
      | Some (Message.Pairs got) ->
        Alcotest.(check (list (pair string string))) (name ^ ": timeline") want got
      | _ -> Alcotest.failf "%s: the timeline must be served" name);
      Test_util.check_int (name ^ ": one fetch per range") 2 (fetches calls);
      Test_util.check_int (name ^ ": recorded stamp") want_stamp
        (Server.range_stamp (Node.engine node) ~table ~lo ~hi))
    [ ( "(a) a newer push",
        ("p|bob|0002", Some "later"), 5,
        [ ("p|bob|0001", "hi") ],
        [ ("t|ann|0001|bob", "hi"); ("t|ann|0002|bob", "later") ], 5 );
      ( "(b) an older push",
        ("p|bob|0001", Some "old"), 2,
        [ ("p|bob|0001", "new") ],
        [ ("t|ann|0001|bob", "new") ], 3 ) ]

(* The engine stamped its whole s table itself while no partition layer
   governed it; the range it later fetches records the home's stamp,
   not that one. *)
let test_fetched_stamp_is_homes () =
  let node, _, _ =
    scripted_core ~joins:[ timeline_join ] (fun _ -> function
      | Message.Fetch { table; _ } ->
        Some
          (Message.Subscribed
             { stamp = 1;
               pairs = (if table = "s" then [ ("s|ann|bob", "1") ] else [ ("p|bob|0001", "hi") ]) })
      | _ -> None)
  in
  for i = 1 to 10 do
    Server.put (Node.engine node) "s|zz" (string_of_int i)
  done;
  attach_home node;
  ignore (ask node (Message.Scan { lo = "t|ann|"; hi = "t|ann}" }));
  Test_util.check_int "the home's stamp" 1
    (Server.range_stamp (Node.engine node) ~table:"s" ~lo:"s|ann|" ~hi:"s|ann}")

(* A stamped read demanding more than the owner's copy will ever show
   refetches once, then waits out the deadline and answers [Stale]. *)
let test_refetches_bounded () =
  let node, clock, calls =
    scripted_core ~joins:[ timeline_join ] (fun _ -> function
      | Message.Fetch _ -> Some (Message.Subscribed { stamp = 1; pairs = [] })
      | _ -> None)
  in
  attach_home node;
  ignore (ask node (Message.Scan { lo = "t|ann|"; hi = "t|ann}" }));
  let answer =
    ask node
      (Message.Scan_at { lo = "t|ann|"; hi = "t|ann}"; min = [ ("s", "s|ann|", "s|ann}", 1000) ] })
  in
  let pumps = ref 0 in
  while !answer = None && !pumps < 3000 do
    clock := !clock +. 0.001;
    Node.pump node;
    incr pumps
  done;
  (match !answer with
  | Some (Message.Stale _) -> ()
  | _ -> Alcotest.fail "the demand cannot be met: Stale");
  Test_util.check_int "one refetch" 1 (Server.counter (Node.engine node) "session.refetches");
  Test_util.check_int "two fetches in all" 2 (fetches calls)

(* ------------------------------------------------------------------ *)
(* Cold timelines over a deferring resolver, in process                 *)

(* The §3.3 fetch-and-retry loop without sockets: [compute]'s resolver
   defers every base range it lacks, and each [`Missing] answer is
   served from [home] through [feed_base] before the scan retries. *)
let cold_engine () =
  let compute = Server.create () in
  Server.add_join_exn compute timeline_join;
  Server.set_resolver compute (fun ~table:_ ~lo:_ ~hi:_ -> Server.Deferred);
  compute

let scan_through ~home compute ~lo ~hi =
  let rec go attempts =
    if attempts > 8 then Alcotest.fail "scan never resolved";
    match Server.scan_result compute ~lo ~hi with
    | `Ok pairs -> pairs
    | `Missing ranges ->
      List.iter
        (fun (table, flo, fhi) ->
          Server.feed_base compute ~table ~lo:flo ~hi:fhi ~stamp:0
            (Server.scan home ~lo:flo ~hi:fhi))
        ranges;
      go (attempts + 1)
  in
  go 0

(* Materializing cold timelines must build each one once: a retry that
   still misses leaves the region alone instead of building a cover from
   absent rows, so no updater fires into a doomed cover and no output is
   torn down. Results match an engine holding every row locally. *)
let test_cold_timelines_materialize_once () =
  let users = 300 in
  let home = Server.create () and local = Server.create () in
  Server.add_join_exn local timeline_join;
  let rng = Test_util.rng_of 17 0 in
  let user i = Printf.sprintf "u%03d" i in
  let base = ref [] in
  for i = 0 to users - 1 do
    for _ = 1 to Rng.int rng 6 do
      base := (Printf.sprintf "s|%s|%s" (user i) (user (Rng.int rng users)), "1") :: !base
    done;
    for _ = 1 to Rng.int rng 4 do
      base := (Printf.sprintf "p|%s|%s" (user i) (Test_util.tm (Rng.int rng 10_000)), user i)
              :: !base
    done
  done;
  Server.put_batch home !base;
  Server.put_batch local !base;
  let compute = cold_engine () in
  let before = Server.stats_snapshot compute in
  let delta name = Server.counter compute name - List.assoc name before in
  let timelines scan =
    List.init users (fun i ->
        scan ~lo:(Printf.sprintf "t|%s|" (user i)) ~hi:(Printf.sprintf "t|%s}" (user i)))
  in
  Alcotest.(check (list (list (pair string string))))
    "timelines match all-local" (timelines (Server.scan local))
    (timelines (scan_through ~home compute));
  Server.check_invariants compute;
  Test_util.check_int "no output torn down" 0 (delta "store.remove");
  Test_util.check_int "no updater fired" 0 (delta "updater.run");
  Test_util.check_int "one materializing run per timeline" users (delta "exec.run");
  Test_util.check_int "one recompute per timeline" users (delta "exec.recompute_region");
  check_bool "misses were probed" true (delta "exec.probe" > users)

(* A logged subscription whose poster's posts are absent: the miss keeps
   the piece's Pending log, and once the posts land the log is applied
   as is, with no wholesale recompute. *)
let test_pending_log_survives_miss () =
  let home = Server.create () in
  Server.put_batch home [ ("p|bob|0001", "b1"); ("p|liz|0002", "l2"); ("s|ann|bob", "1") ];
  let compute = cold_engine () in
  let lo = "t|ann|" and hi = "t|ann}" in
  Test_util.check_pairs "warm timeline" [ ("t|ann|0001|bob", "b1") ]
    (scan_through ~home compute ~lo ~hi);
  (* the home pushes ann's new subscription *)
  Server.put home "s|ann|liz" "1";
  Server.put_batch compute [ ("s|ann|liz", "1") ];
  let before = Server.stats_snapshot compute in
  let delta name = Server.counter compute name - List.assoc name before in
  (match Server.scan_result compute ~lo ~hi with
  | `Missing [ ("p", "p|liz|", "p|liz}") ] -> ()
  | `Missing _ | `Ok _ -> Alcotest.fail "the scan must miss liz's posts");
  Test_util.check_int "log kept through the miss" 0 (delta "exec.apply_log");
  Test_util.check_pairs "after the feed"
    [ ("t|ann|0001|bob", "b1"); ("t|ann|0002|liz", "l2") ]
    (scan_through ~home compute ~lo ~hi);
  Test_util.check_int "log applied once" 1 (delta "exec.apply_log");
  Test_util.check_int "no recompute" 0 (delta "exec.recompute_region");
  Test_util.check_int "nothing torn down" 0 (delta "store.remove");
  Server.check_invariants compute

let () =
  Alcotest.run "async"
    [
      ( "async-read-path",
        [
          Alcotest.test_case "single-flight coalescing" `Quick test_single_flight;
          Alcotest.test_case "parked failure keeps order" `Quick test_park_failure;
          Alcotest.test_case "remote == single server" `Quick test_equivalence;
        ] );
      ( "no-blocking",
        List.concat_map
          (fun (name, backend) ->
            [ Alcotest.test_case ("step never waits on a peer, " ^ name) `Quick
                (test_step_never_waits backend);
              Alcotest.test_case ("migrate never waits on a peer, " ^ name) `Quick
                (test_migrate_never_waits backend) ])
          [ ("epoll", `Epoll); ("select", `Select) ] );
      ( "cold-path",
        [ Alcotest.test_case "cold timelines materialize once" `Quick
            test_cold_timelines_materialize_once;
          Alcotest.test_case "pending log survives a miss" `Quick
            test_pending_log_survives_miss ] );
      ( "migration",
        [ Alcotest.test_case "migration hands subscribers over" `Quick
            test_migrate_hands_subscribers_over;
          Alcotest.test_case "a write while copying is replayed" `Quick
            test_copy_write_replayed;
          Alcotest.test_case "Dir_watch while flipping sees the old epoch" `Quick
            test_flip_keeps_old_epoch;
          Alcotest.test_case "destination lost while flipping" `Quick
            test_flip_destination_lost;
          Alcotest.test_case "a partial migration leaves the rest" `Quick
            test_partial_migration;
          Alcotest.test_case "moved keys leave in chunks" `Quick test_removal_in_chunks ] );
      ( "scripted-core",
        [ Alcotest.test_case "an unsynced follower refuses keyed requests" `Quick
            test_unsynced_follower;
          Alcotest.test_case "a snapshot replays the pushes it predates" `Quick
            test_snapshot_replays_pushes;
          Alcotest.test_case "a fetched range records its home's stamp" `Quick
            test_fetched_stamp_is_homes;
          Alcotest.test_case "stamped-read refetches stay bounded" `Quick
            test_refetches_bounded ] );
    ]
