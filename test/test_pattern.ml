(* Tests for the pattern/slot machinery and the cache-join language. *)

module Pattern = Pequod_pattern.Pattern
module Joinspec = Pequod_pattern.Joinspec

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_range = Alcotest.(check (pair string string))

(* A tiny interner for standalone pattern tests. *)
let make_intern () =
  let names = ref [] in
  let intern name =
    let rec idx i = function
      | [] ->
        names := !names @ [ name ];
        i
      | n :: rest -> if String.equal n name then i else idx (i + 1) rest
    in
    idx 0 !names
  in
  (intern, fun () -> List.length !names)

let timeline_pattern () =
  let intern, count = make_intern () in
  let p = Pattern.parse ~intern "t|<user>|<time>|<poster>" in
  (p, count ())

let test_parse () =
  let p, nslots = timeline_pattern () in
  check_str "table" "t" (Pattern.table p);
  Alcotest.(check int) "nslots" 3 nslots;
  Alcotest.(check (list int)) "slots" [ 0; 1; 2 ] (Pattern.slots p);
  check_bool "mentions" true (Pattern.mentions_slot p 1);
  check_bool "not mentions" false (Pattern.mentions_slot p 9)

let test_parse_errors () =
  let intern, _ = make_intern () in
  let bad text =
    match Pattern.parse ~intern text with
    | exception Pattern.Parse_error _ -> true
    | _ -> false
  in
  check_bool "empty" true (bad "");
  check_bool "empty slot" true (bad "t|<>");
  check_bool "leading slot" true (bad "<user>|x");
  check_bool "stray bracket" true (bad "t|us<er");
  check_bool "empty segment" true (bad "t||x");
  check_bool "good" false (bad "t|<a>|lit|<b>")

let test_match_key () =
  let p, n = timeline_pattern () in
  let empty = Array.make n None in
  (match Pattern.match_key p "t|ann|100|bob" ~bindings:empty with
  | Some b ->
    Alcotest.(check (option string)) "user" (Some "ann") b.(0);
    Alcotest.(check (option string)) "time" (Some "100") b.(1);
    Alcotest.(check (option string)) "poster" (Some "bob") b.(2)
  | None -> Alcotest.fail "should match");
  check_bool "wrong table" true (Pattern.match_key p "p|ann|100|bob" ~bindings:empty = None);
  check_bool "wrong arity" true (Pattern.match_key p "t|ann|100" ~bindings:empty = None);
  check_bool "empty slot value" true (Pattern.match_key p "t||100|bob" ~bindings:empty = None);
  (* consistency with prior bindings *)
  let pre = Array.make n None in
  pre.(0) <- Some "liz";
  check_bool "conflict" true (Pattern.match_key p "t|ann|100|bob" ~bindings:pre = None);
  pre.(0) <- Some "ann";
  check_bool "consistent" true (Pattern.match_key p "t|ann|100|bob" ~bindings:pre <> None);
  (* input bindings are not mutated *)
  ignore (Pattern.match_key p "t|ann|100|bob" ~bindings:empty);
  check_bool "no mutation" true (Array.for_all (( = ) None) empty)

let test_build_key () =
  let p, n = timeline_pattern () in
  let b = Array.make n None in
  b.(0) <- Some "ann";
  b.(1) <- Some "100";
  b.(2) <- Some "bob";
  check_str "build" "t|ann|100|bob" (Pattern.build_key p b);
  b.(1) <- None;
  check_bool "unbound raises" true
    (match Pattern.build_key p b with exception Invalid_argument _ -> true | _ -> false)

let test_interleaved_literals () =
  let intern, count = make_intern () in
  let p = Pattern.parse ~intern "page|<author>|<id>|k|<cid>|<commenter>" in
  let empty = Array.make (count ()) None in
  check_bool "matches tagged" true
    (Pattern.match_key p "page|bob|101|k|c7|liz" ~bindings:empty <> None);
  check_bool "wrong tag" true (Pattern.match_key p "page|bob|101|c|c7|liz" ~bindings:empty = None)

(* §4.1 boundaries: up to and including the first slot, when more
   segments follow it *)
let test_boundary_depth () =
  let intern, _ = make_intern () in
  let depth text = Pattern.boundary_depth (Pattern.parse ~intern text) in
  Alcotest.(check (option int)) "timeline" (Some 2) (depth "t|<user>|<time>|<poster>");
  Alcotest.(check (option int)) "after a literal" (Some 3) (depth "karma|x|<user>|<n>");
  Alcotest.(check (option int)) "slot last" None (depth "karma|<user>");
  Alcotest.(check (option int)) "no slot" None (depth "cfg|all")

let test_containing_range_full () =
  let p, n = timeline_pattern () in
  let b = Array.make n None in
  b.(0) <- Some "ann";
  b.(1) <- Some "100";
  b.(2) <- Some "bob";
  let lo, hi = Pattern.containing_range p ~bindings:b ~residual:None in
  check_str "exact key" "t|ann|100|bob" lo;
  check_bool "tight" true (String.compare lo hi < 0 && hi = lo ^ "\x00")

let test_containing_range_prefix () =
  let p, n = timeline_pattern () in
  let b = Array.make n None in
  b.(0) <- Some "ann";
  check_range "prefix" ("t|ann|", "t|ann}") (Pattern.containing_range p ~bindings:b ~residual:None)

let test_containing_range_residual () =
  (* the paper's example: scan [t|ann|100, t|ann|200) narrows posts to
     [p|bob|100, p|bob|200) *)
  let intern, _ = make_intern () in
  let tl = Pattern.parse ~intern "t|<user>|<time>|<poster>" in
  let posts = Pattern.parse ~intern "p|<poster>|<time>" in
  ignore tl;
  let b = Array.make 3 None in
  b.(2) <- Some "bob";
  let residual = Some Pattern.{ slot = 1; rlo = Some "100"; rhi = Some "200" } in
  check_range "narrowed" ("p|bob|100", "p|bob|200")
    (Pattern.containing_range posts ~bindings:b ~residual);
  (* residual on a different slot is ignored *)
  let residual = Some Pattern.{ slot = 0; rlo = Some "x"; rhi = None } in
  check_range "other slot" ("p|bob|", "p|bob}")
    (Pattern.containing_range posts ~bindings:b ~residual)

let test_bind_range_timeline () =
  let p, n = timeline_pattern () in
  (* the canonical timeline check: [t|ann|100, t|ann}) *)
  match Pattern.bind_range p ~lo:"t|ann|100" ~hi:(Strkey.prefix_upper "t|ann|") ~nslots:n with
  | Some (b, Some r) ->
    Alcotest.(check (option string)) "user bound" (Some "ann") b.(0);
    Alcotest.(check (option string)) "time unbound" None b.(1);
    Alcotest.(check int) "residual slot is time" 1 r.Pattern.slot;
    Alcotest.(check (option string)) "rlo" (Some "100") r.Pattern.rlo;
    Alcotest.(check (option string)) "rhi" None r.Pattern.rhi
  | _ -> Alcotest.fail "expected bindings with residual"

let test_bind_range_both_bounds () =
  let p, n = timeline_pattern () in
  match Pattern.bind_range p ~lo:"t|ann|100" ~hi:"t|ann|200" ~nslots:n with
  | Some (b, Some r) ->
    Alcotest.(check (option string)) "user" (Some "ann") b.(0);
    Alcotest.(check (option string)) "rlo" (Some "100") r.Pattern.rlo;
    Alcotest.(check (option string)) "rhi" (Some "200") r.Pattern.rhi
  | _ -> Alcotest.fail "expected residual with both bounds"

let test_bind_range_exact_key () =
  let p, n = timeline_pattern () in
  match Pattern.bind_range p ~lo:"t|ann|100|bob" ~hi:"t|ann|100|bob\x00" ~nslots:n with
  | Some (b, residual) ->
    Alcotest.(check (option string)) "user" (Some "ann") b.(0);
    Alcotest.(check (option string)) "time" (Some "100") b.(1);
    Alcotest.(check (option string)) "poster" (Some "bob") b.(2);
    check_bool "no residual" true (residual = None)
  | None -> Alcotest.fail "expected full binding"

let test_bind_range_disjoint () =
  let p, n = timeline_pattern () in
  check_bool "different table" true (Pattern.bind_range p ~lo:"x|a" ~hi:"x|b" ~nslots:n = None);
  check_bool "empty range" true (Pattern.bind_range p ~lo:"t|b" ~hi:"t|a" ~nslots:n = None);
  check_bool "above table" true (Pattern.bind_range p ~lo:"u|" ~hi:"zz" ~nslots:n = None)

let test_bind_range_whole_table () =
  let p, n = timeline_pattern () in
  match Pattern.bind_range p ~lo:"t|" ~hi:"t}" ~nslots:n with
  | Some (b, residual) ->
    check_bool "nothing bound" true (Array.for_all (( = ) None) b);
    check_bool "no residual" true (residual = None)
  | None -> Alcotest.fail "whole table should bind"

let test_bind_range_cross_user () =
  let p, n = timeline_pattern () in
  (* the paper's [t|a, t|b) cross-timeline scan *)
  match Pattern.bind_range p ~lo:"t|a" ~hi:"t|b" ~nslots:n with
  | Some (b, Some r) ->
    check_bool "user unbound" true (b.(0) = None);
    Alcotest.(check int) "residual on user" 0 r.Pattern.slot;
    Alcotest.(check (option string)) "rlo" (Some "a") r.Pattern.rlo;
    Alcotest.(check (option string)) "rhi" (Some "b") r.Pattern.rhi
  | _ -> Alcotest.fail "expected residual on user"

let test_bind_range_literal_tag () =
  let intern, count = make_intern () in
  let p = Pattern.parse ~intern "page|<author>|<id>|k|<cid>|<commenter>" in
  let n = count () in
  (* a scan of the whole article page covers the k-tagged join *)
  (match Pattern.bind_range p ~lo:"page|bob|101|" ~hi:"page|bob|101}" ~nslots:n with
  | Some (b, _) ->
    Alcotest.(check (option string)) "author" (Some "bob") b.(0);
    Alcotest.(check (option string)) "id" (Some "101") b.(1)
  | None -> Alcotest.fail "page scan should bind");
  (* a scan of only the comment tag region excludes the karma join *)
  check_bool "tag c excludes k-join" true
    (Pattern.bind_range p ~lo:"page|bob|101|c|" ~hi:"page|bob|101|c}" ~nslots:n = None);
  check_bool "tag k includes k-join" true
    (Pattern.bind_range p ~lo:"page|bob|101|k|" ~hi:"page|bob|101|k}" ~nslots:n <> None)

(* Property: bind_range + containing_range produce a cover that contains
   every pattern key in the requested range (soundness). *)
let prop_bind_range_sound =
  let open QCheck2 in
  let user = Gen.map (fun i -> [| "ann"; "bob"; "liz"; "jim" |].(i)) (Gen.int_bound 3) in
  let time = Gen.map (fun n -> Printf.sprintf "%04d" n) (Gen.int_bound 40) in
  let keygen =
    Gen.map2 (fun u (tm, p) -> Printf.sprintf "t|%s|%s|%s" u tm p) user
      (Gen.pair time user)
  in
  let boundgen =
    Gen.oneof
      [
        keygen;
        Gen.map (fun u -> "t|" ^ u ^ "|") user;
        Gen.map2 (fun u tm -> Printf.sprintf "t|%s|%s" u tm) user time;
        Gen.pure "t|";
        Gen.pure "t}";
        Gen.pure "s|x";
      ]
  in
  Test.make ~name:"bind_range covers all pattern keys in range" ~count:500
    Gen.(triple (list_size (int_range 0 40) keygen) boundgen boundgen)
    (fun (keys, b1, b2) ->
      let lo = Strkey.min_str b1 b2 and hi = Strkey.max_str b1 b2 in
      let intern, count = make_intern () in
      let p = Pattern.parse ~intern "t|<user>|<time>|<poster>" in
      let n = count () in
      let in_request = List.filter (fun k -> Strkey.in_range ~lo ~hi k) keys in
      match Pattern.bind_range p ~lo ~hi ~nslots:n with
      | None -> in_request = [] (* declared disjoint: nothing may be lost *)
      | Some (b, residual) ->
        let clo, chi = Pattern.containing_range p ~bindings:b ~residual in
        List.for_all (fun k -> Strkey.in_range ~lo:clo ~hi:chi k) in_request
        (* and the bindings must agree with every key in range *)
        && List.for_all
             (fun k -> Pattern.match_key p k ~bindings:b <> None)
             in_request)

(* Property: containing_range never loses keys that match under extensions
   of the bindings (source narrowing soundness). *)
let prop_containing_sound =
  let open QCheck2 in
  let user = Gen.map (fun i -> [| "ann"; "bob"; "liz" |].(i)) (Gen.int_bound 2) in
  let time = Gen.map (fun n -> Printf.sprintf "%04d" n) (Gen.int_bound 30) in
  Test.make ~name:"containing_range sound for sources" ~count:500
    Gen.(triple (list_size (int_range 0 30) (pair user time)) user (pair time time))
    (fun (posts, poster, (tlo, thi)) ->
      let intern, count = make_intern () in
      let _tl = Pattern.parse ~intern "t|<user>|<time>|<poster>" in
      let pp = Pattern.parse ~intern "p|<poster>|<time>" in
      let n = count () in
      let b = Array.make n None in
      (* slots: user=0, time=1, poster=2 *)
      b.(2) <- Some poster;
      let tlo, thi = (Strkey.min_str tlo thi, Strkey.max_str tlo thi) in
      let residual = Some Pattern.{ slot = 1; rlo = Some tlo; rhi = Some thi } in
      let slo, shi = Pattern.containing_range pp ~bindings:b ~residual in
      List.for_all
        (fun (u, tm) ->
          let key = Printf.sprintf "p|%s|%s" u tm in
          let matches =
            String.equal u poster && String.compare tlo tm <= 0 && String.compare tm thi < 0
          in
          (* every key that should contribute must be inside [slo, shi) *)
          (not matches) || Strkey.in_range ~lo:slo ~hi:shi key)
        posts)

(* ------------------------------------------------------------------ *)
(* Joinspec                                                            *)

let test_joinspec_timeline () =
  match Joinspec.parse "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>" with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
    Alcotest.(check int) "nslots" 3 (Joinspec.nslots spec);
    check_bool "push default" true (Joinspec.maintenance spec = Joinspec.Push);
    Alcotest.(check int) "two sources" 2 (List.length (Joinspec.sources spec));
    Alcotest.(check int) "value source idx" 1 (Joinspec.value_source_index spec);
    check_bool "value op copy" true (Joinspec.value_op spec = Joinspec.Copy);
    check_bool "not ambiguous" false (Joinspec.is_ambiguous spec);
    check_str "slot name" "user" (Joinspec.slot_name spec 0)

let test_joinspec_annotations () =
  let get text = match Joinspec.parse text with Ok s -> s | Error m -> Alcotest.fail m in
  check_bool "pull" true
    (Joinspec.maintenance (get "a|<x> = pull copy b|<x>") = Joinspec.Pull);
  check_bool "push" true
    (Joinspec.maintenance (get "a|<x> = push copy b|<x>") = Joinspec.Push);
  (match Joinspec.maintenance (get "a|<x> = snapshot 30 copy b|<x>") with
  | Joinspec.Snapshot secs -> Alcotest.(check (float 0.01)) "30s" 30.0 secs
  | _ -> Alcotest.fail "expected snapshot");
  check_bool "bad snapshot" true
    (match Joinspec.parse "a|<x> = snapshot -1 copy b|<x>" with Error _ -> true | _ -> false)

let test_joinspec_aggregate () =
  match Joinspec.parse "karma|<author> = count vote|<author>|<id>|<voter>;" with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
    check_bool "count op" true (Joinspec.value_op spec = Joinspec.Count);
    check_bool "aggregate" true (Joinspec.is_aggregate (Joinspec.value_op spec));
    (* aggregated-away slots are not "ambiguous" *)
    check_bool "not flagged" false (Joinspec.is_ambiguous spec)

let test_joinspec_validation () =
  let err text = match Joinspec.parse text with Error _ -> true | Ok _ -> false in
  check_bool "no sources" true (err "a|<x> =");
  check_bool "all check" true (err "a|<x> = check b|<x>");
  check_bool "two value sources" true (err "a|<x> = copy b|<x> copy c|<x>");
  check_bool "direct recursion" true (err "a|<x> = copy a|<x>");
  check_bool "unbound output slot" true (err "a|<x>|<y> = copy b|<x>");
  check_bool "unknown operator" true (err "a|<x> = clone b|<x>");
  check_bool "dangling token" true (err "a|<x> = copy");
  check_bool "no equals" true (err "a|<x> copy b|<x>")

let test_joinspec_ambiguous () =
  (* the paper's example: dropping |poster makes outputs collide *)
  match Joinspec.parse "t|<user>|<time> = check s|<user>|<poster> copy p|<poster>|<time>" with
  | Error msg -> Alcotest.fail msg
  | Ok spec -> check_bool "flagged ambiguous" true (Joinspec.is_ambiguous spec)

let test_joinspec_celebrity () =
  (* source order is a performance annotation and must be preserved *)
  match Joinspec.parse "t|<user>|<time>|<poster> = pull copy ct|<time>|<poster> check s|<user>|<poster>" with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
    check_bool "pull" true (Joinspec.maintenance spec = Joinspec.Pull);
    Alcotest.(check int) "value source first" 0 (Joinspec.value_source_index spec)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "pattern"
    [
      ( "pattern",
        [
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "match_key" `Quick test_match_key;
          Alcotest.test_case "build_key" `Quick test_build_key;
          Alcotest.test_case "interleaved literals" `Quick test_interleaved_literals;
          Alcotest.test_case "boundary depth" `Quick test_boundary_depth;
        ] );
      ( "containing-range",
        [
          Alcotest.test_case "fully bound" `Quick test_containing_range_full;
          Alcotest.test_case "prefix" `Quick test_containing_range_prefix;
          Alcotest.test_case "residual narrowing" `Quick test_containing_range_residual;
        ] );
      ( "bind-range",
        [
          Alcotest.test_case "timeline" `Quick test_bind_range_timeline;
          Alcotest.test_case "both bounds" `Quick test_bind_range_both_bounds;
          Alcotest.test_case "exact key" `Quick test_bind_range_exact_key;
          Alcotest.test_case "disjoint" `Quick test_bind_range_disjoint;
          Alcotest.test_case "whole table" `Quick test_bind_range_whole_table;
          Alcotest.test_case "cross user" `Quick test_bind_range_cross_user;
          Alcotest.test_case "literal tags" `Quick test_bind_range_literal_tag;
        ] );
      ("props", qsuite [ prop_bind_range_sound; prop_containing_sound ]);
      ( "joinspec",
        [
          Alcotest.test_case "timeline" `Quick test_joinspec_timeline;
          Alcotest.test_case "annotations" `Quick test_joinspec_annotations;
          Alcotest.test_case "aggregate" `Quick test_joinspec_aggregate;
          Alcotest.test_case "validation" `Quick test_joinspec_validation;
          Alcotest.test_case "ambiguous flagged" `Quick test_joinspec_ambiguous;
          Alcotest.test_case "celebrity order" `Quick test_joinspec_celebrity;
        ] );
    ]
