(* Tests of the benchmark's own bookkeeping: exact percentiles, failure
   accounting and the result line. *)

let close = Alcotest.float 1e-12

let sorted xs =
  let s = Metrics.Samples.create () in
  List.iter (Metrics.Samples.add s) xs;
  Metrics.Samples.sorted s

let test_percentiles () =
  let one_to_100 = sorted (List.rev (List.init 100 (fun i -> float_of_int (i + 1)))) in
  Alcotest.check close "p50 of 1..100" 50.0 (Metrics.percentile one_to_100 0.50);
  Alcotest.check close "p99 of 1..100" 99.0 (Metrics.percentile one_to_100 0.99);
  Alcotest.check close "p100 of 1..100" 100.0 (Metrics.percentile one_to_100 1.0);
  Alcotest.check close "p1 of 1..100" 1.0 (Metrics.percentile one_to_100 0.01);
  let ten = sorted [ 7.; 3.; 9.; 1.; 5.; 10.; 2.; 8.; 4.; 6. ] in
  Alcotest.check close "p50 of 1..10" 5.0 (Metrics.percentile ten 0.5);
  Alcotest.check close "p99 of 1..10" 10.0 (Metrics.percentile ten 0.99);
  Alcotest.check close "single sample" 42.0 (Metrics.percentile (sorted [ 42. ]) 0.99);
  Alcotest.check close "empty" 0.0 (Metrics.percentile [||] 0.5)

let test_percentile_is_a_sample () =
  (* exact samples: the answer is always an observed value, never an
     interpolated or bucketed one *)
  let xs = [ 0.113; 0.52; 1.7; 1.9; 12.25; 0.98; 3.3 ] in
  let s = sorted xs in
  List.iter
    (fun q -> Alcotest.(check bool) "observed" true (List.mem (Metrics.percentile s q) xs))
    [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ]

let test_growth () =
  let s = Metrics.Samples.create () in
  for i = 1 to 5000 do
    Metrics.Samples.add s (float_of_int i)
  done;
  Alcotest.(check int) "count" 5000 (Metrics.Samples.count s);
  Alcotest.check close "p99 of 1..5000" 4950.0 (Metrics.percentile (Metrics.Samples.sorted s) 0.99);
  Alcotest.check close "sum" 12502500.0 (Metrics.Samples.sum s)

let samples xs =
  let s = Metrics.Samples.create () in
  List.iter (Metrics.Samples.add s) xs;
  s

let test_grouped_percentile () =
  (* three slices of 4 samples; groups need 4, so each slice is a group *)
  let s = samples [ 1.; 2.; 3.; 100.; 1.; 2.; 3.; 4.; 1.; 2.; 3.; 5. ] in
  Alcotest.check close "median of slice maxima" 5.0
    (Metrics.grouped_percentile s ~cuts:[ 0; 4; 8 ] ~min_group:4 1.0);
  (* the one stall (100) owns the pooled maximum, not the grouped one *)
  Alcotest.check close "pooled" 100.0
    (Metrics.grouped_percentile s ~cuts:[ 0; 4; 8 ] ~min_group:12 1.0);
  (* slices too small to stand alone merge, and a short tail joins the
     last group: cuts 0,2,4,6,8,10 with min 4 -> [0,4) [4,8) [8,12) *)
  Alcotest.check close "merged slices" 5.0
    (Metrics.grouped_percentile s ~cuts:[ 0; 2; 4; 6; 8; 10 ] ~min_group:4 1.0);
  Alcotest.check close "remainder joins last" 100.0
    (Metrics.grouped_percentile s ~cuts:[ 0; 4; 8; 10 ] ~min_group:5 1.0);
  Alcotest.check close "empty" 0.0
    (Metrics.grouped_percentile (samples []) ~cuts:[ 0 ] ~min_group:10 0.99)

let test_median () =
  Alcotest.check close "odd" 2.0 (Metrics.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even" 2.5 (Metrics.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "empty" 0.0 (Metrics.median [])

let test_failure_accounting () =
  let t = Metrics.tally () in
  List.iter (Metrics.record t)
    [ Metrics.Answered; Answered; Answered; Answered; Answered; Answered; Error_answer;
      Stale_answer; Timed_out; Conn_lost ];
  Alcotest.(check int) "attempted" 10 t.attempted;
  Alcotest.(check int) "answered" 6 t.answered;
  Alcotest.(check int) "every non-answer fails" 4 (Metrics.failed t);
  Alcotest.check close "ok share" 0.6 (Metrics.ok_share t);
  Alcotest.check close "nothing attempted" 1.0 (Metrics.ok_share (Metrics.tally ()))

let test_transport_outcome () =
  let same a b = Alcotest.(check bool) "outcome" true (a = b) in
  same Metrics.Timed_out (Metrics.transport_outcome "request timed out");
  same Metrics.Conn_lost (Metrics.transport_outcome "i/o error: Connection reset by peer");
  same Metrics.Conn_lost
    (Metrics.transport_outcome "connect to 127.0.0.1:1 failed after 4 attempts: refused")

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Metrics.valid_name n))
    [ "qps"; "read_p99_ms"; "core.scan_p50_us"; "persist.wal_bytes_per_user_byte"; "9-x" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Metrics.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "a:b"; "é"; String.make 65 'a' ];
  Alcotest.(check bool) "unit 1/s" true (Metrics.valid_unit "1/s");
  Alcotest.(check bool) "unit with space" false (Metrics.valid_unit "per op")

let test_catalogue () =
  (* every name a run can emit, checked against the result-line rules *)
  let all = Metrics.end_to_end_units @ Metrics.per_layer_units in
  List.iter
    (fun (name, unit_) ->
      Alcotest.(check bool) ("name " ^ name) true (Metrics.valid_name name);
      Alcotest.(check bool) ("unit of " ^ name) true (Metrics.valid_unit unit_))
    all;
  Alcotest.(check int)
    "names distinct" (List.length all)
    (List.length (List.sort_uniq compare (List.map fst all)));
  Alcotest.(check bool) "setup_s is end-to-end, in seconds" true
    (List.assoc_opt "setup_s" Metrics.end_to_end_units = Some "s");
  Alcotest.(check string) "unit looked up" "us/op" (Metrics.metric "cpu_us_per_op" 1.0).unit_;
  Alcotest.check_raises "unknown metric" Not_found (fun () -> ignore (Metrics.metric "nope" 1.0))

let test_result_json () =
  let m name value unit_ = { Metrics.name; value; unit_ } in
  let line =
    Metrics.result_json ~correct:true ~attempted:10 ~failed:1
      [ m "qps" 1234.5 "1/s"; m "setup_s" 0.8127 "s" ]
  in
  Alcotest.(check string)
    "line"
    "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"qps\": {\"value\": \
     1234.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.81269999999999998, \"unit\": \"s\"}}}"
    line;
  let refused ms =
    match Metrics.result_json ~correct:true ~attempted:1 ~failed:0 ms with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad name" true (refused [ m "bad name" 1.0 "s" ]);
  Alcotest.(check bool) "repeated" true (refused [ m "x" 1.0 "s"; m "x" 2.0 "s" ]);
  Alcotest.(check bool) "bad unit" true (refused [ m "x" 1.0 "" ])

let () =
  Alcotest.run "perfbench"
    [ ( "percentiles",
        [ Alcotest.test_case "known samples" `Quick test_percentiles;
          Alcotest.test_case "always an observed sample" `Quick test_percentile_is_a_sample;
          Alcotest.test_case "buffer growth" `Quick test_growth;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "grouped tail" `Quick test_grouped_percentile ] );
      ( "failures",
        [ Alcotest.test_case "every non-answer counts" `Quick test_failure_accounting;
          Alcotest.test_case "transport errors classified" `Quick test_transport_outcome ] );
      ( "result",
        [ Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "every emitted name" `Quick test_catalogue;
          Alcotest.test_case "json line" `Quick test_result_json ] ) ]
