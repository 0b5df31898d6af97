(* Fault-injection tests for the durability subsystem (lib/persist):
   log replay, snapshots, torn tails, corrupt records, stale snapshots
   with newer logs, rotation/compaction, and presence bookkeeping
   (owned ranges survive recovery; fetched ranges refetch). *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Persist = Pequod_persist.Persist
module Wal = Pequod_persist.Wal
module Snapshot = Pequod_persist.Snapshot
module Record = Pequod_persist.Record

let check_bool = Test_util.check_bool
let check_int = Test_util.check_int
let fresh_dir () = Test_util.fresh_dir ~prefix:"pequod-persist" ()

let timeline_join = "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

let persist_cfg ?(sync = Config.Sync_always) ?(snapshot_every = 0) ?wal_max_bytes dir =
  let p = Config.default_persist ~dir in
  p.Config.p_sync <- sync;
  p.Config.p_snapshot_every <- snapshot_every;
  (match wal_max_bytes with Some n -> p.Config.p_wal_max_bytes <- n | None -> ());
  p

let durable_server ?sync ?snapshot_every ?wal_max_bytes dir =
  let s = Server.create () in
  let p = Persist.attach s (persist_cfg ?sync ?snapshot_every ?wal_max_bytes dir) in
  (s, p)

(* A miniature Twip population: follows then posts, so the timeline join
   has work to do on the first scan. *)
let populate s =
  Server.add_join_exn s timeline_join;
  List.iter
    (fun (k, v) -> Server.put s k v)
    [ ("s|ann|bob", "1"); ("s|ann|cat", "1"); ("s|dee|bob", "1");
      ("p|bob|0000000100", "hello"); ("p|bob|0000000300", "again");
      ("p|cat|0000000200", "meow") ]

let timeline s user =
  Server.scan s ~lo:(Printf.sprintf "t|%s|" user) ~hi:(Strkey.prefix_upper (Printf.sprintf "t|%s|" user))

let expected_ann =
  [ ("t|ann|0000000100|bob", "hello"); ("t|ann|0000000200|cat", "meow");
    ("t|ann|0000000300|bob", "again") ]

(* CRC-32 check vector (IEEE: crc of "123456789" is 0xCBF43926). *)
let test_crc32 () =
  check_bool "check vector" true (Crc32.string "123456789" = 0xCBF43926l);
  check_bool "empty" true (Crc32.string "" = 0l);
  let buf = Buffer.create 4 in
  Crc32.add_be buf 0xCBF43926l;
  check_bool "be roundtrip" true (Crc32.get_be (Buffer.contents buf) 0 = 0xCBF43926l)

let test_record_roundtrip () =
  let payloads = [ "alpha"; ""; String.make 5000 'x'; "\x00\xfe\x01" ] in
  let wire = String.concat "" (List.map Record.encode payloads) in
  let got, ending = Record.read_all wire in
  check_bool "payloads" true (got = payloads);
  check_bool "clean" true (ending = Record.Clean);
  (* torn: drop the last byte *)
  let got, ending = Record.read_all (String.sub wire 0 (String.length wire - 1)) in
  check_bool "torn payloads" true (got = [ "alpha"; ""; String.make 5000 'x' ]);
  check_bool "torn" true (ending = Record.Torn);
  (* corrupt: flip one payload byte of the third record *)
  let b = Bytes.of_string wire in
  let off = String.length (Record.encode "alpha") + String.length (Record.encode "") + 8 + 17 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  let got, ending = Record.read_all (Bytes.to_string b) in
  check_bool "prefix survives corruption" true (got = [ "alpha"; "" ]);
  check_bool "corrupt" true (ending = Record.Corrupt)

(* Populate, stop, restart: the warm restart must serve identical scans
   from the log alone (no snapshot was ever taken). *)
let test_wal_replay () =
  let dir = fresh_dir () in
  let s, p = durable_server dir in
  populate s;
  check_bool "warm timeline" true (timeline s "ann" = expected_ann);
  Server.remove s "p|cat|0000000200";
  Persist.close p;
  let s2, p2 = durable_server dir in
  check_bool "join recovered" true (Server.join_texts s2 <> []);
  check_bool "timeline after restart" true
    (timeline s2 "ann"
    = [ ("t|ann|0000000100|bob", "hello"); ("t|ann|0000000300|bob", "again") ]);
  check_bool "dee timeline" true
    (timeline s2 "dee"
    = [ ("t|dee|0000000100|bob", "hello"); ("t|dee|0000000300|bob", "again") ]);
  Server.validate s2;
  Persist.close p2

(* Snapshot mid-stream, then more writes: recovery = snapshot + log tail. *)
let test_snapshot_plus_tail () =
  let dir = fresh_dir () in
  let s, p = durable_server dir in
  populate s;
  Persist.snapshot_now p;
  Server.put s "p|bob|0000000400" "tail";
  Server.put s "s|ann|eve" "1";
  Persist.close p;
  let s2, p2 = durable_server dir in
  check_bool "restored from snapshot" true
    (List.mem_assoc "persist.snapshot_seq" (Persist.stats p2)
    && List.assoc "persist.snapshot_seq" (Persist.stats p2) > 0);
  check_bool "tail replayed" true (List.assoc "persist.replayed" (Persist.stats p2) = 2);
  check_bool "timeline" true
    (timeline s2 "ann" = expected_ann @ [ ("t|ann|0000000400|bob", "tail") ]);
  Persist.close p2

(* The snapshot must not contain sink-table (join output) pairs: they are
   recomputed lazily after recovery. *)
let test_snapshot_skips_sinks () =
  let dir = fresh_dir () in
  let s, p = durable_server dir in
  populate s;
  ignore (timeline s "ann") (* materialize t| *);
  Persist.snapshot_now p;
  Persist.close p;
  let snap =
    List.find_map
      (fun n ->
        if Snapshot.parse_file_name n <> None then Some (Filename.concat dir n) else None)
      (Array.to_list (Sys.readdir dir))
  in
  match Snapshot.load (Option.get snap) with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
    check_int "base pairs only" 6 (List.length c.Snapshot.pairs);
    check_bool "no t| keys" true
      (List.for_all (fun (k, _) -> not (String.length k > 0 && k.[0] = 't')) c.Snapshot.pairs);
    check_int "one join" 1 (List.length c.Snapshot.joins)

(* Crash mid-append: the log tail is truncated inside the final record.
   Recovery keeps everything up to the last durable record. *)
let test_torn_tail () =
  let dir = fresh_dir () in
  let s, p = durable_server dir in
  populate s;
  Server.put s "p|bob|0000000500" "doomed";
  Persist.close p;
  (* tear the final record: chop 3 bytes off the newest log file *)
  let wal =
    List.filter_map
      (fun n -> Option.map (fun seq -> (seq, Filename.concat dir n)) (Wal.parse_file_name n))
      (Array.to_list (Sys.readdir dir))
    |> List.sort compare |> List.rev |> List.hd |> snd
  in
  let size = (Unix.stat wal).Unix.st_size in
  Unix.truncate wal (size - 3);
  let s2, p2 = durable_server dir in
  check_bool "tail loss detected" true (List.assoc "persist.tail_lost" (Persist.stats p2) = 1);
  check_bool "doomed record gone" true (Server.get s2 "p|bob|0000000500" = None);
  check_bool "earlier data intact" true (timeline s2 "ann" = expected_ann);
  (* the replacement log starts past the torn one; new writes are durable *)
  Server.put s2 "p|bob|0000000600" "recovered";
  Persist.close p2;
  let s3, p3 = durable_server dir in
  check_bool "post-recovery write survives" true
    (Server.get s3 "p|bob|0000000600" = Some "recovered");
  Persist.close p3

(* Bit rot inside an earlier record: replay stops at the corruption (the
   durable horizon) but serves everything before it. *)
let test_corrupt_record () =
  let dir = fresh_dir () in
  let s, p = durable_server dir in
  Server.put s "b|one" "1";
  Server.put s "b|two" "2";
  Server.put s "b|three" "3";
  Persist.close p;
  let wal =
    List.find_map
      (fun n ->
        if Wal.parse_file_name n <> None then Some (Filename.concat dir n) else None)
      (Array.to_list (Sys.readdir dir))
    |> Option.get
  in
  (* flip a byte inside the second record's payload: each record is
     4 (frame) + 4 (crc) + payload; record 1's payload is 12 bytes *)
  let r1 = String.length (Record.encode (Wal.encode_entry ~seq:1 (Wal.Put ("b|one", "1")))) in
  let fd = Unix.openfile wal [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd (r1 + 10) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
  Unix.close fd;
  let s2, p2 = durable_server dir in
  check_bool "first record survives" true (Server.get s2 "b|one" = Some "1");
  check_bool "corrupt record dropped" true (Server.get s2 "b|two" = None);
  check_bool "records past corruption dropped" true (Server.get s2 "b|three" = None);
  check_bool "tail loss detected" true (List.assoc "persist.tail_lost" (Persist.stats p2) = 1);
  Persist.close p2

(* A corrupt newest snapshot must not lose data: recovery falls back to
   the older retained snapshot and replays the full log tail from there. *)
let test_stale_snapshot_newer_log () =
  let dir = fresh_dir () in
  let s, p = durable_server dir in
  populate s;
  Persist.snapshot_now p;
  Server.put s "p|bob|0000000400" "after-snap1";
  Persist.snapshot_now p;
  Server.put s "p|bob|0000000500" "after-snap2";
  Persist.close p;
  (* corrupt the newest snapshot *)
  let newest_snap =
    List.filter_map
      (fun n ->
        Option.map (fun seq -> (seq, Filename.concat dir n)) (Snapshot.parse_file_name n))
      (Array.to_list (Sys.readdir dir))
    |> List.sort compare |> List.rev |> List.hd |> snd
  in
  let fd = Unix.openfile newest_snap [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 30 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xde\xad") 0 2);
  Unix.close fd;
  let s2, p2 = durable_server dir in
  check_bool "older snapshot used" true
    (List.assoc "persist.snapshot_seq" (Persist.stats p2) > 0);
  check_bool "all data recovered" true
    (timeline s2 "ann"
    = expected_ann
      @ [ ("t|ann|0000000400|bob", "after-snap1"); ("t|ann|0000000500|bob", "after-snap2") ]);
  Persist.close p2

(* Automatic snapshots + rotation: old logs and old snapshots are
   compacted away, at most two snapshots remain, and recovery is exact. *)
let test_rotation_compaction () =
  let dir = fresh_dir () in
  let s, p = durable_server ~snapshot_every:25 dir in
  for i = 1 to 130 do
    Server.put s (Printf.sprintf "b|%04d" i) (string_of_int i)
  done;
  Persist.close p;
  let snaps = List.filter (fun n -> Snapshot.parse_file_name n <> None)
      (Array.to_list (Sys.readdir dir)) in
  let wals = List.filter (fun n -> Wal.parse_file_name n <> None)
      (Array.to_list (Sys.readdir dir)) in
  check_bool "snapshots taken" true (List.length snaps >= 1);
  check_bool "at most two snapshots retained" true (List.length snaps <= 2);
  check_bool "old logs compacted" true (List.length wals <= 3);
  let s2, p2 = durable_server dir in
  check_int "all pairs recovered" 130 (Server.size s2);
  check_bool "spot check" true (Server.get s2 "b|0007" = Some "7");
  Server.validate s2;
  Persist.close p2

(* Version stamps are durable (snapshot v2): a stamp acked to a session
   before the crash is still satisfied after recovery, whether it was
   covered by the snapshot or only by replayed log records. *)
let test_stamps_survive_recovery () =
  let dir = fresh_dir () in
  let s, p = durable_server dir in
  Server.put s "b|one" "1";
  Server.put s "b|two" "2";
  Persist.snapshot_now p;
  Server.put s "b|three" "3";
  (* the stamp a session would have accumulated from its write acks *)
  let acked = Server.stamps_for_keys s [ "b|three" ] in
  check_bool "ack stamped" true (acked <> []);
  Persist.close p;
  let s2, p2 = durable_server dir in
  check_bool "acked stamp satisfied after recovery" true
    (List.for_all
       (fun (table, lo, hi, stamp) -> Server.range_stamp s2 ~table ~lo ~hi >= stamp)
       acked);
  check_bool "stamped read would not block" true
    (Server.stamp_unsatisfied s2 acked = []);
  (* new writes keep the counter moving past the recovered level *)
  let before = Server.range_stamp s2 ~table:"b" ~lo:"b|" ~hi:"b}" in
  Server.put s2 "b|four" "4";
  check_bool "stamps advance after recovery" true
    (Server.range_stamp s2 ~table:"b" ~lo:"b|" ~hi:"b}" > before);
  Persist.close p2

(* Size-based rotation: a tiny wal-max-bytes forces snapshot+rotate. *)
let test_size_rotation () =
  let dir = fresh_dir () in
  let s, p = durable_server ~wal_max_bytes:512 dir in
  for i = 1 to 60 do
    Server.put s (Printf.sprintf "b|%04d" i) (String.make 40 'v')
  done;
  check_bool "rotated" true (List.assoc "persist.snapshots" (Persist.stats p) >= 1);
  Persist.close p;
  let s2, p2 = durable_server dir in
  check_int "all pairs recovered" 60 (Server.size s2);
  Persist.close p2

(* Resolver bookkeeping: presence of resolver-fetched ranges is NOT
   durable. A restarted server no longer holds the subscription that
   kept the fetched copy fresh, so recovery leaves the range missing
   and the first scan refetches — serving the backing store's current
   contents, never a frozen pre-crash copy. *)
let test_refetch_after_recovery () =
  let dir = fresh_dir () in
  let fetches = ref 0 in
  let backing ~table ~lo:_ ~hi:_ =
    if table = "p" then begin
      incr fetches;
      Server.Deferred
    end
    else Server.Local
  in
  let fed s backing =
    Test_util.scan_fed s ~backing ~lo:"t|ann|" ~hi:(Strkey.prefix_upper "t|ann|")
  in
  let s, p = durable_server dir in
  Server.set_resolver s backing;
  Server.add_join_exn s timeline_join;
  Server.put s "s|ann|bob" "1";
  let expect =
    [ ("t|ann|0000000100|bob", "hello"); ("t|ann|0000000200|bob", "world") ]
  in
  check_bool "cold scan" true
    (fed s [ ("p|bob|0000000100", "hello"); ("p|bob|0000000200", "world") ] = expect);
  check_int "one backing fetch" 1 !fetches;
  Persist.close p;
  let s2, p2 = durable_server dir in
  let refetches = ref 0 in
  (* the backing store moved on while this server was down: the scan
     after restart must reflect that, not the pre-crash fetch *)
  Server.set_resolver s2 (fun ~table ~lo:_ ~hi:_ ->
      if table = "p" then begin
        incr refetches;
        Server.Deferred
      end
      else Server.Local);
  check_bool "warm scan refetches current data" true
    (fed s2 [ ("p|bob|0000000100", "fresh") ] = [ ("t|ann|0000000100|bob", "fresh") ]);
  check_bool "resolver consulted after restart" true (!refetches >= 1);
  Persist.close p2

(* Home ownership IS durable: mark_present ranges survive a restart, so
   a recovered home keeps serving its partitions without a resolver. *)
let test_ownership_survives_recovery () =
  let dir = fresh_dir () in
  let s, p = durable_server dir in
  Server.add_join_exn s timeline_join;
  Server.mark_present s ~table:"p" ~lo:"p|" ~hi:"p}";
  Server.put s "s|ann|bob" "1";
  Server.put s "p|bob|0000000100" "hello";
  Persist.close p;
  let s2, p2 = durable_server dir in
  check_bool "owned range recovered" true
    (List.mem ("p", "p|", "p}") (Server.present_ranges s2));
  let consulted = ref 0 in
  Server.set_resolver s2 (fun ~table ~lo:_ ~hi:_ ->
      if table = "p" then incr consulted;
      Server.Local);
  check_bool "owned scan" true
    (timeline s2 "ann" = [ ("t|ann|0000000100|bob", "hello") ]);
  check_int "no resolver call for the owned source" 0 !consulted;
  Persist.close p2

(* The CLI-configured join must not be installed twice when it was
   already recovered from the data directory (Net_server dedup). *)
let test_net_server_join_dedup () =
  let dir = fresh_dir () in
  let mk () =
    let config = Config.default () in
    config.Config.persist <- Some (persist_cfg dir);
    Pequod_server_lib.Net_server.create ~config ~port:0 ~joins:[ timeline_join ]
      ~memory_limit:None ()
  in
  let t = mk () in
  let e = Pequod_server_lib.Net_server.engine t in
  Server.put e "s|ann|bob" "1";
  Server.put e "p|bob|0000000100" "hi";
  check_int "one join" 1 (List.length (Server.joins e));
  Pequod_server_lib.Net_server.stop t;
  let t2 = mk () in
  let e2 = Pequod_server_lib.Net_server.engine t2 in
  check_int "still one join after restart" 1 (List.length (Server.joins e2));
  check_bool "data recovered" true
    (timeline e2 "ann" = [ ("t|ann|0000000100|bob", "hi") ]);
  Pequod_server_lib.Net_server.stop t2

let () =
  Alcotest.run "persist"
    [
      ( "record",
        [
          Alcotest.test_case "crc32" `Quick test_crc32;
          Alcotest.test_case "framing roundtrip + faults" `Quick test_record_roundtrip;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "wal replay" `Quick test_wal_replay;
          Alcotest.test_case "snapshot + log tail" `Quick test_snapshot_plus_tail;
          Alcotest.test_case "snapshot skips sink tables" `Quick test_snapshot_skips_sinks;
          Alcotest.test_case "fetched ranges refetch after recovery" `Quick
            test_refetch_after_recovery;
          Alcotest.test_case "owned ranges survive recovery" `Quick
            test_ownership_survives_recovery;
          Alcotest.test_case "stamps survive recovery" `Quick
            test_stamps_survive_recovery;
        ] );
      ( "faults",
        [
          Alcotest.test_case "torn tail" `Quick test_torn_tail;
          Alcotest.test_case "corrupt record" `Quick test_corrupt_record;
          Alcotest.test_case "stale snapshot + newer log" `Quick
            test_stale_snapshot_newer_log;
        ] );
      ( "rotation",
        [
          Alcotest.test_case "snapshot-every compaction" `Quick test_rotation_compaction;
          Alcotest.test_case "size rotation" `Quick test_size_rotation;
        ] );
      ("net", [ Alcotest.test_case "join dedup on restart" `Quick test_net_server_join_dedup ]);
    ]
