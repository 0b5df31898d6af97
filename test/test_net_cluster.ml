(* Multi-process integration test: a live 3-process cluster — two home
   servers owning one base table each, one compute server running the
   Twip timeline join — started from the real pequod_server binary with
   --partition routes, talked to through Net_client.

   Checks the §2.4 protocol end to end over real TCP:
   - a put on a home server is readable via a scan on the compute server
     (Fetch + Subscribed snapshot),
   - later writes reach the compute server without rescanning from
     scratch (Notify_batch push),
   - a killed home triggers an Error response (the parked scan's fetch
     fails fast, surfaced in scan.parked), not a crash,
   - a respawned home (same port) heals the route on the next scan,
   - the Sub_check heartbeat detects the subscription lost with the old
     process and re-subscribes, unfreezing already-present ranges. *)

module Message = Pequod_proto.Message
module Net_client = Pequod_server_lib.Net_client
module Directory = Pequod_server_lib.Directory

let check_bool = Alcotest.(check bool)

let timeline_join = "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

let server_exe () =
  let candidates =
    [ "../bin/pequod_server.exe"; "bin/pequod_server.exe";
      "_build/default/bin/pequod_server.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some exe -> exe
  | None -> Alcotest.fail "pequod_server.exe not built"

(* start a server process with its stdout piped back, so the parent can
   read the "listening on port N" line (the only stdout line it emits) *)
let spawn args =
  let exe = server_exe () in
  let r, w = Unix.pipe () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  (pid, r)

let digits_after s prefix =
  let rec find i =
    if i + String.length prefix > String.length s then None
    else if String.sub s i (String.length prefix) = prefix then Some (i + String.length prefix)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < String.length s && match s.[!stop] with '0' .. '9' -> true | _ -> false
    do
      incr stop
    done;
    if !stop > start then int_of_string_opt (String.sub s start (!stop - start)) else None

let read_port fd =
  let acc = Buffer.create 256 in
  let b = Bytes.create 1024 in
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    match digits_after (Buffer.contents acc) "listening on port " with
    | Some port -> port
    | None ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "server did not report its port";
      (match Unix.select [ fd ] [] [] 1.0 with
      | [ _ ], _, _ ->
        let n = Unix.read fd b 0 (Bytes.length b) in
        if n = 0 then Alcotest.fail "server exited before reporting its port";
        Buffer.add_subbytes acc b 0 n
      | _ -> ());
      go ()
  in
  go ()

let poll ~timeout ~what f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

let counter_of client name =
  match Net_client.call client Message.Stats_full with
  | Message.Metrics metrics -> (
    match List.assoc_opt name metrics with
    | Some (Obs.Counter n) | Some (Obs.Gauge n) -> n
    | _ -> 0)
  | _ -> 0

let scan_pairs client lo hi =
  match Net_client.call client (Message.Scan { lo; hi }) with
  | Message.Pairs pairs -> Ok pairs
  | Message.Error msg -> Error msg
  | _ -> Alcotest.fail "unexpected scan response"

let put_ok client k v =
  match Net_client.call client (Message.Put (k, v)) with
  | Message.Done | Message.Stamps _ -> ()
  | Message.Error msg -> Alcotest.failf "put %s failed: %s" k msg
  | _ -> Alcotest.fail "unexpected put response"

let test_cluster () =
  let pids = ref [] in
  let clients = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> try Net_client.close c with _ -> ()) !clients;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !pids)
    (fun () ->
      let start args =
        let pid, out = spawn args in
        pids := pid :: !pids;
        let port = read_port out in
        (pid, port)
      in
      let client port =
        let c = Net_client.create (Printf.sprintf "127.0.0.1:%d" port) in
        clients := c :: !clients;
        c
      in
      (* two homes (plain stores) + one compute server running the join,
         each base table routed to its owning home *)
      let _, port_a = start [ "--port"; "0" ] in
      let _, port_b = start [ "--port"; "0" ] in
      let pid_b = List.hd !pids in
      let _, port_c =
        start
          [ "--port"; "0"; "--join"; timeline_join;
            "--partition"; Printf.sprintf "s@127.0.0.1:%d" port_a;
            "--partition"; Printf.sprintf "p@127.0.0.1:%d" port_b ]
      in
      let home_a = client port_a in
      let home_b = client port_b in
      let compute = client port_c in

      (* write through the homes, read through the compute server: the
         first scan fetches both base ranges and subscribes *)
      put_ok home_a "s|ann|bob" "1";
      put_ok home_b "p|bob|0000000100" "hi";
      (match scan_pairs compute "t|ann|" "t|ann}" with
      | Ok [ ("t|ann|0000000100|bob", "hi") ] -> ()
      | Ok pairs -> Alcotest.failf "first scan: %d pairs" (List.length pairs)
      | Error msg -> Alcotest.failf "first scan failed: %s" msg);
      check_bool "home A served a fetch" true (counter_of home_a "peer.fetch.in" >= 1);

      (* freshness: a later post on home B must reach the compute
         server's materialized timeline via the subscription push,
         without the compute server refetching *)
      put_ok home_b "p|bob|0000000200" "yo";
      poll ~timeout:10.0 ~what:"notify push to reach the compute timeline" (fun () ->
          match scan_pairs compute "t|ann|" "t|ann}" with
          | Ok [ ("t|ann|0000000100|bob", "hi"); ("t|ann|0000000200|bob", "yo") ] -> true
          | Ok _ -> false
          | Error msg -> Alcotest.failf "scan during push wait: %s" msg);
      check_bool "push arrived as Notify_batch" true
        (counter_of compute "peer.notify.in" >= 1);

      (* kill home B: a scan needing a new p range gets a bounded-retry
         Error, already-fetched data stays readable, nothing crashes *)
      Unix.kill pid_b Sys.sigkill;
      ignore (Unix.waitpid [] pid_b);
      put_ok home_a "s|dee|liz" "1";
      (* first scan finds the cached connection dead; the second goes
         through the bounded-backoff reconnect path *)
      (match scan_pairs compute "t|dee|" "t|dee}" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "scan through a dead home must report an error");
      (match scan_pairs compute "t|dee|" "t|dee}" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "second scan through a dead home must report an error");
      (* asynchronous read path: the miss parked and the fetch engine
         failed it fast (dead-peer backoff), no blocking client retry *)
      check_bool "failed scans were parked" true
        (counter_of compute "scan.parked" >= 1);
      (match scan_pairs compute "t|ann|" "t|ann}" with
      | Ok (_ :: _) -> ()
      | Ok [] -> Alcotest.fail "present ranges lost after peer death"
      | Error msg -> Alcotest.failf "old timeline unreadable after peer death: %s" msg);

      (* respawn home B on the same port: the next scan refetches the
         missing range from the new process and heals the route *)
      let _, port_b2 = start [ "--port"; string_of_int port_b ] in
      check_bool "respawned on the same port" true (port_b2 = port_b);
      (* the old client's cached connection is stale; the call after the
         failure reconnects to the new process *)
      (try put_ok home_b "p|liz|0000000300" "back"
       with Net_client.Net_error _ -> put_ok home_b "p|liz|0000000300" "back");
      poll ~timeout:10.0 ~what:"recovery through the respawned home" (fun () ->
          match scan_pairs compute "t|dee|" "t|dee}" with
          | Ok [ ("t|dee|0000000300|liz", "back") ] -> true
          | Ok _ -> false
          | Error _ -> false);

      (* subscription healing: the compute server's p|bob subscription
         died with the old home B process, yet the range is still marked
         present — without repair, t|ann would serve its frozen copy
         forever. The periodic Sub_check notices the respawned home does
         not know this subscriber, refetches, and re-subscribes, so a
         write to the NEW process reaches the timeline. *)
      put_ok home_b "p|bob|0000000400" "anew";
      poll ~timeout:15.0 ~what:"sub_check healing after the home respawn" (fun () ->
          match scan_pairs compute "t|ann|" "t|ann}" with
          | Ok pairs -> List.mem_assoc "t|ann|0000000400|bob" pairs
          | Error _ -> false);
      check_bool "loss detected and counted" true (counter_of compute "peer.sub.lost" >= 1))

(* ------------------------------------------------------------------ *)
(* Directory mode: live migration and its crash-safety.                *)

let dir_state client =
  match Net_client.call client Message.Dir_get with
  | Message.Dir_state { epoch; entries } -> (epoch, entries)
  | Message.Error msg -> Alcotest.failf "Dir_get failed: %s" msg
  | _ -> Alcotest.fail "unexpected Dir_get response"

let get_value client k =
  match Net_client.call client (Message.Get k) with
  | Message.Value v -> Ok v
  | Message.Error msg -> Error msg
  | _ -> Alcotest.fail "unexpected get response"

(* A seed home owning table s, one follower. Migrate the upper half of
   the table to the follower under a live client, then check the
   directory flipped exactly once, both halves stay readable from BOTH
   servers (forwarded or local), and a write through the OLD home lands
   at the new one — the directory, not the process you happened to dial,
   decides placement. *)
let test_migrate_then_verify () =
  let pids = ref [] in
  let clients = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> try Net_client.close c with _ -> ()) !clients;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !pids)
    (fun () ->
      let start args =
        let pid, out = spawn args in
        pids := pid :: !pids;
        let port = read_port out in
        (pid, port)
      in
      let client port =
        let c = Net_client.create (Printf.sprintf "127.0.0.1:%d" port) in
        clients := c :: !clients;
        c
      in
      (* the seed homes the whole table at itself (bare spec, no @addr) *)
      let _, port_a = start [ "--port"; "0"; "--dir-host"; "--partition"; "s" ] in
      let addr_a = Printf.sprintf "127.0.0.1:%d" port_a in
      let _, port_b = start [ "--port"; "0"; "--directory"; addr_a ] in
      let addr_b = Printf.sprintf "127.0.0.1:%d" port_b in
      let home_a = client port_a in
      let home_b = client port_b in

      for i = 1 to 99 do
        put_ok home_a (Printf.sprintf "s|u%03d" i) (Printf.sprintf "v%03d" i)
      done;
      check_bool "seed starts at epoch 1" true (fst (dir_state home_a) = 1);

      (match
         Net_client.call home_a
           (Message.Migrate { table = "s"; lo = "s|u050"; hi = "s}"; dest = addr_b })
       with
      | Message.Pairs stats ->
        check_bool "keys_moved reported" true
          (List.assoc_opt "keys_moved" stats = Some "50")
      | Message.Error msg -> Alcotest.failf "migrate failed: %s" msg
      | _ -> Alcotest.fail "unexpected migrate response");

      (* the flip is one epoch step and splits the range at the cut *)
      let epoch, entries = dir_state home_a in
      check_bool "epoch flipped once" true (epoch = 2);
      check_bool "range split at the cut" true
        (List.map
           (fun (e : Message.dir_entry) -> (e.de_lo, e.de_hi, e.de_home))
           entries
        = [ ("s|", "s|u050", addr_a); ("s|u050", "s}", addr_b) ]);

      (* both halves readable through EITHER server: low key via B is
         forwarded to A, high key via A is forwarded to B *)
      poll ~timeout:10.0 ~what:"follower to adopt the new epoch" (fun () ->
          fst (dir_state home_b) = 2);
      check_bool "low key via new home (forwarded)" true
        (get_value home_b "s|u010" = Ok (Some "v010"));
      check_bool "high key via old home (forwarded)" true
        (get_value home_a "s|u075" = Ok (Some "v075"));
      check_bool "high key via new home (local)" true
        (get_value home_b "s|u075" = Ok (Some "v075"));

      (* a write through the OLD home must land at the new one *)
      put_ok home_a "s|u075" "v075-after-move";
      check_bool "write through old home lands at new home" true
        (get_value home_b "s|u075" = Ok (Some "v075-after-move"));

      (* a scan spanning the cut stitches both homes together *)
      match scan_pairs home_b "s|u048" "s|u052" with
      | Ok [ ("s|u048", _); ("s|u049", _); ("s|u050", _); ("s|u051", _) ] -> ()
      | Ok pairs -> Alcotest.failf "cross-home scan: %d pairs" (List.length pairs)
      | Error msg -> Alcotest.failf "cross-home scan failed: %s" msg)

(* kill -9 the source mid-migration: the directory epoch must NEVER
   advertise a half-moved range. The followers keep routing to the dead
   source (reads error; they do not silently serve the partial copy the
   destination holds), and the epoch stays put. *)
let test_migration_crash_safety () =
  let pids = ref [] in
  let clients = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> try Net_client.close c with _ -> ()) !clients;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !pids)
    (fun () ->
      let start args =
        let pid, out = spawn args in
        pids := pid :: !pids;
        let port = read_port out in
        (pid, port)
      in
      let client port =
        let c = Net_client.create (Printf.sprintf "127.0.0.1:%d" port) in
        clients := c :: !clients;
        c
      in
      let pid_a, port_a = start [ "--port"; "0"; "--dir-host"; "--partition"; "s" ] in
      let addr_a = Printf.sprintf "127.0.0.1:%d" port_a in
      let _, port_b = start [ "--port"; "0"; "--directory"; addr_a ] in
      let addr_b = Printf.sprintf "127.0.0.1:%d" port_b in
      let _, port_c = start [ "--port"; "0"; "--directory"; addr_a ] in
      let home_a = client port_a in
      let home_b = client port_b in
      let observer = client port_c in

      (* enough keys that the copy takes many pump chunks: the kill below
         is guaranteed to land mid-migration, never after the flip *)
      let batch = ref [] in
      for i = 1 to 200_000 do
        batch := (Printf.sprintf "s|u%06d" i, "v") :: !batch;
        if i mod 1_000 = 0 then begin
          (match Net_client.call home_a (Message.Put_batch !batch) with
          | Message.Done | Message.Stamps _ -> ()
          | Message.Error msg -> Alcotest.failf "preload failed: %s" msg
          | _ -> Alcotest.fail "unexpected put_batch response");
          batch := []
        end
      done;
      poll ~timeout:10.0 ~what:"followers to fetch the directory" (fun () ->
          fst (dir_state home_b) = 1 && fst (dir_state observer) = 1);

      (* fire the migration from a forked child (the call blocks until
         the flip, which must never come) and kill -9 the source while
         the snapshot copy is in flight *)
      let mig_pid = Unix.fork () in
      if mig_pid = 0 then begin
        (try
           let c = Net_client.create (Printf.sprintf "127.0.0.1:%d" port_a) in
           ignore
             (Net_client.call c
                (Message.Migrate
                   { table = "s"; lo = "s|u000001"; hi = "s}"; dest = addr_b }))
         with _ -> ());
        Unix._exit 0
      end;
      pids := mig_pid :: !pids;
      Unix.sleepf 0.03;
      Unix.kill pid_a Sys.sigkill;
      ignore (Unix.waitpid [] pid_a);

      (* the followers' directory copies must keep the pre-migration
         truth — epoch 1, the whole range homed at the (dead) source —
         not just immediately but after their polls run too *)
      let assert_unchanged who c =
        let epoch, entries = dir_state c in
        check_bool (who ^ " epoch unchanged") true (epoch = 1);
        check_bool (who ^ " still homes the range at the source") true
          (List.for_all (fun (e : Message.dir_entry) -> e.de_home = addr_a) entries)
      in
      assert_unchanged "follower" home_b;
      assert_unchanged "observer" observer;
      Unix.sleepf 1.5 (* two poll intervals *);
      assert_unchanged "follower (after polls)" home_b;
      assert_unchanged "observer (after polls)" observer;

      (* reads of the half-moved range error out rather than serving the
         destination's partial copy *)
      match get_value home_b "s|u100000" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "read of a half-migrated range served silently")

(* ------------------------------------------------------------------ *)
(* Session consistency (docs/SESSIONS.md): read-your-writes across the
   cluster, asserted without a single poll — the stamped read itself
   must wait, refetch, or fail [Stale]; it never answers early.         *)

module Session = Pequod_server_lib.Session

(* Write through a home, read through TWO compute servers that both
   materialized the timeline BEFORE the write (so each holds a copy the
   push must catch up): a stamped scan demanding the write's ack vector
   must include the new post on the very first call, on whichever
   compute it lands. *)
let test_session_read_your_writes () =
  let pids = ref [] in
  let clients = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> try Net_client.close c with _ -> ()) !clients;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !pids)
    (fun () ->
      let start args =
        let pid, out = spawn args in
        pids := pid :: !pids;
        let port = read_port out in
        (pid, port)
      in
      let client port =
        let c = Net_client.create (Printf.sprintf "127.0.0.1:%d" port) in
        clients := c :: !clients;
        c
      in
      let _, port_s = start [ "--port"; "0" ] in
      let _, port_p = start [ "--port"; "0" ] in
      let compute_args =
        [ "--port"; "0"; "--join"; timeline_join;
          "--partition"; Printf.sprintf "s@127.0.0.1:%d" port_s;
          "--partition"; Printf.sprintf "p@127.0.0.1:%d" port_p ]
      in
      let _, port_c1 = start compute_args in
      let _, port_c2 = start compute_args in
      let home_s = client port_s in
      let home_p = client port_p in
      let compute1 = client port_c1 in
      let compute2 = client port_c2 in

      put_ok home_s "s|ann|bob" "1";
      put_ok home_p "p|bob|0000000100" "hi";
      (* both computes materialize the timeline: present, subscribed
         copies that a later write makes stale until the push lands *)
      List.iter
        (fun compute ->
          match scan_pairs compute "t|ann|" "t|ann}" with
          | Ok [ ("t|ann|0000000100|bob", "hi") ] -> ()
          | Ok pairs -> Alcotest.failf "warm scan: %d pairs" (List.length pairs)
          | Error msg -> Alcotest.failf "warm scan failed: %s" msg)
        [ compute1; compute2 ];

      (* the writing session lives on the home owning p; reader sessions
         on each compute receive its vector via the stamp handoff *)
      let writer = Session.create home_p in
      let reader1 = Session.create compute1 in
      let reader2 = Session.create compute2 in
      check_bool "fresh session demands nothing" true (Session.stamp writer = []);
      for i = 1 to 8 do
        let time = 100 + i in
        let key = Printf.sprintf "p|bob|%010d" time in
        Session.put writer key (Printf.sprintf "post-%d" i);
        check_bool "write ack carried a stamp" true (Session.stamp writer <> []);
        (* alternate computes so both serve stamped reads demanding a
           write they may not have been pushed yet *)
        let reader = if i mod 2 = 0 then reader1 else reader2 in
        Session.with_at_least reader (Session.stamp writer);
        let pairs = Session.scan reader ~lo:"t|ann|" ~hi:"t|ann}" in
        let tkey = Printf.sprintf "t|ann|%010d|bob" time in
        check_bool
          (Printf.sprintf "stamped scan %d sees the write first try" i)
          true
          (List.assoc_opt tkey pairs = Some (Printf.sprintf "post-%d" i))
      done;
      (* Session.get takes the same gate *)
      check_bool "stamped get sees the last write" true
        (Session.get reader1 "t|ann|0000000108|bob" = Some "post-8");
      check_bool "computes served stamped reads" true
        (counter_of compute1 "session.reads" + counter_of compute2 "session.reads" >= 9))

(* A session's guarantee must survive a live migration: acked stamps are
   handed to the new home before the epoch flips (its counter continues,
   never restarts), so post-flip acks stay comparable and a stamped read
   through either server sees the post-flip write. *)
let test_session_across_migration () =
  let pids = ref [] in
  let clients = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> try Net_client.close c with _ -> ()) !clients;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !pids)
    (fun () ->
      let start args =
        let pid, out = spawn args in
        pids := pid :: !pids;
        let port = read_port out in
        (pid, port)
      in
      let client port =
        let c = Net_client.create (Printf.sprintf "127.0.0.1:%d" port) in
        clients := c :: !clients;
        c
      in
      let _, port_a = start [ "--port"; "0"; "--dir-host"; "--partition"; "s" ] in
      let addr_a = Printf.sprintf "127.0.0.1:%d" port_a in
      let _, port_b = start [ "--port"; "0"; "--directory"; addr_a ] in
      let addr_b = Printf.sprintf "127.0.0.1:%d" port_b in
      let home_a = client port_a in
      let home_b = client port_b in

      for i = 1 to 99 do
        put_ok home_a (Printf.sprintf "s|u%03d" i) (Printf.sprintf "v%03d" i)
      done;
      let stamp_covering session key =
        match
          List.find_opt
            (fun (table, lo, hi, _) ->
              table = "s" && String.compare lo key <= 0 && String.compare key hi < 0)
            (Session.stamp session)
        with
        | Some (_, _, _, s) -> s
        | None -> Alcotest.failf "no session stamp covers %s" key
      in
      let writer = Session.create home_a in
      Session.put writer "s|u075" "pre-move";
      let pre_stamp = stamp_covering writer "s|u075" in

      (match
         Net_client.call home_a
           (Message.Migrate { table = "s"; lo = "s|u050"; hi = "s}"; dest = addr_b })
       with
      | Message.Pairs _ -> ()
      | Message.Error msg -> Alcotest.failf "migrate failed: %s" msg
      | _ -> Alcotest.fail "unexpected migrate response");
      poll ~timeout:10.0 ~what:"follower to adopt the new epoch" (fun () ->
          fst (dir_state home_b) = 2);

      (* the same session writes through the OLD home: the write is
         forwarded to the new one and its ack stamp must continue past
         every pre-migration ack — a restarted counter would issue
         stamps the session's accumulated vector already exceeds *)
      Session.put writer "s|u075" "post-move";
      let post_stamp = stamp_covering writer "s|u075" in
      check_bool
        (Printf.sprintf "stamp continues across the flip (%d > %d)" post_stamp pre_stamp)
        true (post_stamp > pre_stamp);

      (* stamped reads demanding the full vector see the post-flip write
         through either server, first try *)
      List.iter
        (fun c ->
          let reader = Session.create c in
          Session.with_at_least reader (Session.stamp writer);
          check_bool "stamped read sees the post-migration write" true
            (Session.get reader "s|u075" = Some "post-move"))
        [ home_a; home_b ])

(* A demand the server cannot prove must fail [Stale], never be served
   from derived data the push never refreshed. Kill the home owning a
   demanded range: a stamped read demanding a version past the
   compute's copy parks, tries to refetch, finds the owner dead and
   answers the typed [Stale] — while plain (eventual) reads keep
   serving the old timeline. A respawned owner then heals the next
   stamped read end to end. *)
let test_session_stale_on_dead_owner () =
  let pids = ref [] in
  let clients = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> try Net_client.close c with _ -> ()) !clients;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !pids)
    (fun () ->
      let start args =
        let pid, out = spawn args in
        pids := pid :: !pids;
        let port = read_port out in
        (pid, port)
      in
      let client port =
        let c = Net_client.create (Printf.sprintf "127.0.0.1:%d" port) in
        clients := c :: !clients;
        c
      in
      let _, port_s = start [ "--port"; "0" ] in
      let pid_p, port_p = start [ "--port"; "0" ] in
      let _, port_c =
        start
          [ "--port"; "0"; "--join"; timeline_join;
            "--partition"; Printf.sprintf "s@127.0.0.1:%d" port_s;
            "--partition"; Printf.sprintf "p@127.0.0.1:%d" port_p ]
      in
      let home_s = client port_s in
      let home_p = client port_p in
      let compute = client port_c in

      put_ok home_s "s|ann|bob" "1";
      let writer = Session.create home_p in
      Session.put writer "p|bob|0000000100" "hi";
      (* the compute materializes the timeline: a present, subscribed
         copy of the p|bob| slice with the ack's stamp recorded *)
      (match scan_pairs compute "t|ann|" "t|ann}" with
      | Ok [ ("t|ann|0000000100|bob", "hi") ] -> ()
      | Ok pairs -> Alcotest.failf "warm scan: %d pairs" (List.length pairs)
      | Error msg -> Alcotest.failf "warm scan failed: %s" msg);
      let reader = Session.create compute in
      Session.with_at_least reader (Session.stamp writer);
      check_bool "stamped scan satisfied by the caught-up copy" true
        (List.mem_assoc "t|ann|0000000100|bob"
           (Session.scan reader ~lo:"t|ann|" ~hi:"t|ann}"));

      (* kill the owner, then demand one version past anything the
         compute holds — the shape of an acked write whose push died
         with its home. Serving the resident timeline would present
         stale data as fresh; the only honest answer is [Stale]. *)
      Unix.kill pid_p Sys.sigkill;
      ignore (Unix.waitpid [] pid_p);
      Session.with_at_least reader
        (List.map (fun (t, lo, hi, s) -> (t, lo, hi, s + 1)) (Session.stamp writer));
      (match Session.scan reader ~lo:"t|ann|" ~hi:"t|ann}" with
      | pairs ->
        Alcotest.failf "unprovable demand served %d pairs instead of Stale"
          (List.length pairs)
      | exception Session.Stale (_ :: _) -> ());
      check_bool "stale failure counted" true
        (counter_of compute "session.stale_errors" >= 1);
      (* eventual-mode reads are untouched: the old timeline still serves *)
      (match scan_pairs compute "t|ann|" "t|ann}" with
      | Ok pairs ->
        check_bool "plain scan still serves the old copy" true
          (List.mem_assoc "t|ann|0000000100|bob" pairs)
      | Error msg -> Alcotest.failf "plain scan failed: %s" msg);

      (* a respawned owner makes demands provable again: the dropped
         slice refetches from the live process during the stamped read *)
      let _, port_p2 = start [ "--port"; string_of_int port_p ] in
      check_bool "respawned on the same port" true (port_p2 = port_p);
      let writer2 = Session.create (client port_p) in
      Session.put writer2 "p|bob|0000000100" "hi";
      Session.put writer2 "p|bob|0000000200" "again";
      let reader2 = Session.create compute in
      Session.with_at_least reader2 (Session.stamp writer2);
      (* the fetcher's dead-peer backoff may still cover the respawned
         port for a moment; Stale is retryable by contract *)
      poll ~timeout:10.0 ~what:"stamped read healing through the respawned owner"
        (fun () ->
          match Session.scan reader2 ~lo:"t|ann|" ~hi:"t|ann}" with
          | pairs -> List.mem_assoc "t|ann|0000000200|bob" pairs
          | exception Session.Stale _ -> false))

(* ------------------------------------------------------------------ *)
(* Directory mode: read replicas and subscription healing.            *)

(* [f ~start ~client] with every spawned server and client torn down
   afterwards: [start args] boots a server and returns (pid, port),
   [client port] connects a tracked client *)
let with_cluster f =
  let pids = ref [] in
  let clients = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> try Net_client.close c with _ -> ()) !clients;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !pids)
    (fun () ->
      let start args =
        let pid, out = spawn args in
        pids := pid :: !pids;
        (pid, read_port out)
      in
      let client port =
        let c = Net_client.create (Printf.sprintf "127.0.0.1:%d" port) in
        clients := c :: !clients;
        c
      in
      f ~start ~client)

let dir_update client ~epoch entries =
  match Net_client.call client (Message.Dir_update { epoch; entries }) with
  | Message.Done -> ()
  | Message.Error msg -> Alcotest.failf "Dir_update failed: %s" msg
  | _ -> Alcotest.fail "unexpected Dir_update response"

(* A read replica end to end: the seed homes s and p, a follower becomes
   a replica of p through Dir_update (what pequod_ctl replicate sends),
   and a third server computes timelines. The replica warms and serves
   its copy (replica.reads), pushes keep the compute fresh, and once the
   replica is killed reads still answer through the home — a dead
   replica costs a fallback, never the answer. *)
let test_replica () =
  with_cluster @@ fun ~start ~client ->
  let _, port_a =
    start [ "--port"; "0"; "--dir-host"; "--partition"; "s"; "--partition"; "p" ]
  in
  let addr_a = Printf.sprintf "127.0.0.1:%d" port_a in
  let pid_b, port_b = start [ "--port"; "0"; "--directory"; addr_a ] in
  let addr_b = Printf.sprintf "127.0.0.1:%d" port_b in
  let _, port_c = start [ "--port"; "0"; "--join"; timeline_join; "--directory"; addr_a ] in
  let seed = client port_a in
  let replica = client port_b in
  let compute = client port_c in
  put_ok seed "s|ann|bob" "1";
  put_ok seed "p|bob|0000000100" "hi";
  let epoch, entries = dir_state seed in
  (match Directory.add_replica entries ~table:"p" ~lo:"p|" ~hi:"p}" ~addr:addr_b with
  | Ok entries -> dir_update seed ~epoch:(epoch + 1) entries
  | Error msg -> Alcotest.failf "add_replica: %s" msg);
  List.iter
    (fun c ->
      poll ~timeout:10.0 ~what:"followers to adopt the replica epoch" (fun () ->
          fst (dir_state c) = epoch + 1))
    [ replica; compute ];
  poll ~timeout:10.0 ~what:"the replica to warm" (fun () ->
      get_value replica "p|bob|0000000100" = Ok (Some "hi"));
  check_bool "replica served its copy" true (counter_of replica "replica.reads" >= 1);
  (match scan_pairs compute "t|ann|" "t|ann}" with
  | Ok [ ("t|ann|0000000100|bob", "hi") ] -> ()
  | Ok pairs -> Alcotest.failf "timeline: %d pairs" (List.length pairs)
  | Error msg -> Alcotest.failf "timeline failed: %s" msg);
  put_ok seed "p|bob|0000000200" "yo";
  poll ~timeout:10.0 ~what:"the push to reach the compute timeline" (fun () ->
      match scan_pairs compute "t|ann|" "t|ann}" with
      | Ok pairs -> List.mem_assoc "t|ann|0000000200|bob" pairs
      | Error _ -> false);
  Unix.kill pid_b Sys.sigkill;
  ignore (Unix.waitpid [] pid_b);
  (* a cold timeline fetches its p range past the dead replica *)
  put_ok seed "s|dee|liz" "1";
  put_ok seed "p|liz|0000000300" "back";
  (match scan_pairs compute "t|dee|" "t|dee}" with
  | Ok [ ("t|dee|0000000300|liz", "back") ] -> ()
  | Ok pairs -> Alcotest.failf "cold timeline after replica death: %d pairs" (List.length pairs)
  | Error msg -> Alcotest.failf "cold timeline after replica death failed: %s" msg);
  match scan_pairs compute "t|ann|" "t|ann}" with
  | Ok (_ :: _) -> ()
  | Ok [] -> Alcotest.fail "warm timeline lost after replica death"
  | Error msg -> Alcotest.failf "warm timeline after replica death: %s" msg

(* [test_cluster]'s healing steps on a directory-routed compute: the
   home of p restarts on its port and forgets the compute's
   subscription. The heartbeat must refetch the range, not only forget
   it — the already-valid t|ann output would keep serving its frozen
   copy. *)
let test_directory_heal () =
  with_cluster @@ fun ~start ~client ->
  let _, port_a = start [ "--port"; "0"; "--dir-host" ] in
  let addr_a = Printf.sprintf "127.0.0.1:%d" port_a in
  let home_b_args port = [ "--port"; string_of_int port; "--directory"; addr_a ] in
  let pid_b, port_b = start (home_b_args 0) in
  let _, port_c = start [ "--port"; "0"; "--join"; timeline_join; "--directory"; addr_a ] in
  let seed = client port_a in
  let compute = client port_c in
  let entry table home =
    { Message.de_table = table; de_lo = table ^ "|"; de_hi = table ^ "}"; de_home = home;
      de_replicas = [] }
  in
  dir_update seed ~epoch:1
    [ entry "s" addr_a; entry "p" (Printf.sprintf "127.0.0.1:%d" port_b) ];
  (* a follower answers writes only once it knows the directory *)
  let adopted c =
    poll ~timeout:10.0 ~what:"a follower to adopt the directory" (fun () ->
        fst (dir_state c) = 1)
  in
  let home_b = client port_b in
  List.iter adopted [ compute; home_b ];
  put_ok seed "s|ann|bob" "1";
  put_ok home_b "p|bob|0000000100" "hi";
  (match scan_pairs compute "t|ann|" "t|ann}" with
  | Ok [ ("t|ann|0000000100|bob", "hi") ] -> ()
  | Ok pairs -> Alcotest.failf "first scan: %d pairs" (List.length pairs)
  | Error msg -> Alcotest.failf "first scan failed: %s" msg);
  Unix.kill pid_b Sys.sigkill;
  ignore (Unix.waitpid [] pid_b);
  let _, port_b2 = start (home_b_args port_b) in
  check_bool "respawned on the same port" true (port_b2 = port_b);
  let home_b2 = client port_b in
  adopted home_b2;
  put_ok home_b2 "p|bob|0000000400" "anew";
  poll ~timeout:15.0 ~what:"sub_check healing after the home respawn" (fun () ->
      match scan_pairs compute "t|ann|" "t|ann}" with
      | Ok pairs -> List.mem_assoc "t|ann|0000000400|bob" pairs
      | Error _ -> false);
  check_bool "loss detected and counted" true (counter_of compute "peer.sub.lost" >= 1)

(* A scan spanning tables on a directory server is cut in key order by
   every entry it overlaps, whatever the table: p is homed at the seed
   A, q at the follower B, and [p|, q}) must return the rows of both
   tables from either server — a cut by the first table's entries
   alone would serve q's rows from A's own, empty, store. *)
let test_cross_table_scan () =
  with_cluster @@ fun ~start ~client ->
  let _, port_a = start [ "--port"; "0"; "--dir-host" ] in
  let addr_a = Printf.sprintf "127.0.0.1:%d" port_a in
  let _, port_b = start [ "--port"; "0"; "--directory"; addr_a ] in
  let addr_b = Printf.sprintf "127.0.0.1:%d" port_b in
  let a = client port_a in
  let b = client port_b in
  let entry table home =
    { Message.de_table = table; de_lo = table ^ "|"; de_hi = table ^ "}"; de_home = home;
      de_replicas = [] }
  in
  dir_update a ~epoch:1 [ entry "p" addr_a; entry "q" addr_b ];
  poll ~timeout:10.0 ~what:"the follower to adopt the directory" (fun () ->
      fst (dir_state b) = 1);
  put_ok a "p|y" "1";
  put_ok a "q|a" "2";
  put_ok a "q|b" "3";
  let want = [ ("p|y", "1"); ("q|a", "2"); ("q|b", "3") ] in
  List.iter
    (fun (name, c) ->
      match scan_pairs c "p|" "q}" with
      | Ok got when got = want -> ()
      | Ok got -> Alcotest.failf "cross-table scan on %s: %d pairs, want 3" name (List.length got)
      | Error msg -> Alcotest.failf "cross-table scan on %s failed: %s" name msg)
    [ ("A", a); ("B", b) ]

let () =
  Alcotest.run "net-cluster"
    [
      ("three-process", [ Alcotest.test_case "fetch/subscribe/push" `Quick test_cluster ]);
      ( "directory",
        [
          Alcotest.test_case "migrate then verify" `Quick test_migrate_then_verify;
          Alcotest.test_case "kill -9 source mid-migration" `Quick
            test_migration_crash_safety;
          Alcotest.test_case "replica warms, fails over" `Quick test_replica;
          Alcotest.test_case "heartbeat refetches lost sub" `Quick test_directory_heal;
          Alcotest.test_case "cross-table scan reaches every home" `Quick
            test_cross_table_scan;
        ] );
      ( "session",
        [
          Alcotest.test_case "read-your-writes across computes" `Quick
            test_session_read_your_writes;
          Alcotest.test_case "session across live migrate" `Quick
            test_session_across_migration;
          Alcotest.test_case "stale on dead owner" `Quick
            test_session_stale_on_dead_owner;
        ] );
    ]
