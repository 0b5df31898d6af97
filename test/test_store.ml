(* Tests for the ordered-store substrate: red-black tree, interval map,
   range map, tables/subtables, LRU. Property tests check each structure
   against a naive reference model. *)

module Rbtree = Pequod_store.Rbtree
module Interval_map = Pequod_store.Interval_map
module Range_map = Pequod_store.Range_map
module Table = Pequod_store.Table
module Store = Pequod_store.Store
module Lru = Pequod_store.Lru
module Smap = Map.Make (String)

let check_list = Alcotest.(check (list (pair string int)))
let check_int = Test_util.check_int
let check_bool = Test_util.check_bool

(* ------------------------------------------------------------------ *)
(* Rbtree unit tests                                                   *)

let tree_of_list pairs =
  let t = Rbtree.create ~dummy:0 () in
  List.iter (fun (k, v) -> ignore (Rbtree.insert t k v)) pairs;
  t

let test_rb_basic () =
  let t = tree_of_list [ ("b", 2); ("a", 1); ("c", 3) ] in
  Rbtree.validate t;
  check_int "size" 3 (Rbtree.size t);
  check_list "inorder" [ ("a", 1); ("b", 2); ("c", 3) ] (Rbtree.to_list t);
  check_bool "find" true (Rbtree.find t "b" <> None);
  check_bool "find missing" true (Rbtree.find t "bb" = None)

let test_rb_overwrite () =
  let t = tree_of_list [ ("a", 1) ] in
  let _, old = Rbtree.insert t "a" 9 in
  Alcotest.(check (option int)) "old value returned" (Some 1) old;
  check_int "size" 1 (Rbtree.size t);
  check_list "value" [ ("a", 9) ] (Rbtree.to_list t)

let test_rb_remove () =
  let t = tree_of_list [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ] in
  check_bool "removed" true (Rbtree.remove t "b");
  check_bool "absent" false (Rbtree.remove t "b");
  Rbtree.validate t;
  check_list "after" [ ("a", 1); ("c", 3); ("d", 4) ] (Rbtree.to_list t)

let test_rb_lower_bound () =
  let t = tree_of_list [ ("b", 2); ("d", 4); ("f", 6) ] in
  let lb k = Option.map (fun n -> n.Rbtree.key) (Rbtree.lower_bound t k) in
  Alcotest.(check (option string)) "exact" (Some "b") (lb "b");
  Alcotest.(check (option string)) "between" (Some "d") (lb "c");
  Alcotest.(check (option string)) "before" (Some "b") (lb "");
  Alcotest.(check (option string)) "past end" None (lb "g")

let test_rb_iter_range () =
  let t = tree_of_list [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ] in
  let got = ref [] in
  Rbtree.iter_range t ~lo:"b" ~hi:"d" (fun n -> got := (n.Rbtree.key, n.Rbtree.value) :: !got);
  check_list "range" [ ("b", 2); ("c", 3) ] (List.rev !got)

let test_rb_node_identity_after_remove () =
  (* transplant-based delete must not relocate surviving nodes' contents *)
  let t = tree_of_list [ ("a", 1); ("b", 2); ("c", 3); ("d", 4); ("e", 5) ] in
  let c = Option.get (Rbtree.find t "c") in
  check_bool "live" true (Rbtree.is_live c);
  ignore (Rbtree.remove t "b");
  ignore (Rbtree.remove t "d");
  Rbtree.validate t;
  check_bool "still live" true (Rbtree.is_live c);
  Alcotest.(check string) "same key" "c" c.Rbtree.key;
  let b = Option.get (Rbtree.find t "a") in
  ignore (Rbtree.remove_node t b);
  check_bool "dead after removal" false (Rbtree.is_live b)

let test_rb_insert_after_fast_path () =
  let t = tree_of_list [ ("m|1", 1); ("m|3", 3); ("z", 99) ] in
  let hint = Option.get (Rbtree.find t "m|3") in
  (* genuine append-after case *)
  let n, old = Rbtree.insert_after t ~hint "m|4" 4 in
  check_bool "fresh" true (old = None);
  check_bool "live" true (Rbtree.is_live n);
  Rbtree.validate t;
  (* bogus hint (not adjacent) falls back to correct insert *)
  let hint2 = Option.get (Rbtree.find t "m|1") in
  ignore (Rbtree.insert_after t ~hint:hint2 "m|9" 9);
  Rbtree.validate t;
  check_list "order"
    [ ("m|1", 1); ("m|3", 3); ("m|4", 4); ("m|9", 9); ("z", 99) ]
    (Rbtree.to_list t);
  (* hint pointing at a dead node falls back *)
  let dead = Option.get (Rbtree.find t "m|4") in
  ignore (Rbtree.remove t "m|4");
  ignore (Rbtree.insert_after t ~hint:dead "m|5" 5);
  Rbtree.validate t;
  check_bool "m|5 present" true (Rbtree.find t "m|5" <> None);
  (* hint equal to inserted key falls back to overwrite *)
  let h = Option.get (Rbtree.find t "m|5") in
  let n2, old2 = Rbtree.insert_after t ~hint:h "m|5" 50 in
  check_bool "overwrote" true (old2 = Some 5);
  check_int "value" 50 n2.Rbtree.value;
  (* insert_after where successor exists in hint's right subtree *)
  let h3 = Option.get (Rbtree.find t "m|3") in
  ignore (Rbtree.insert_after t ~hint:h3 "m|35" 35);
  Rbtree.validate t

let test_rb_sequential_append () =
  (* the timeline pattern: always append at the end via the last hint *)
  let t = Rbtree.create ~dummy:0 () in
  let hint = ref None in
  for i = 0 to 999 do
    let k = Printf.sprintf "t|%04d" i in
    let node, _ =
      match !hint with
      | Some h -> Rbtree.insert_after t ~hint:h k i
      | None -> Rbtree.insert t k i
    in
    hint := Some node
  done;
  Rbtree.validate t;
  check_int "size" 1000 (Rbtree.size t);
  let expect = List.init 1000 (fun i -> (Printf.sprintf "t|%04d" i, i)) in
  check_list "order" expect (Rbtree.to_list t)

let test_rb_empty () =
  let t = Rbtree.create ~dummy:0 () in
  Rbtree.validate t;
  check_bool "empty" true (Rbtree.is_empty t);
  check_bool "min" true (Rbtree.min_node t = None);
  check_bool "max" true (Rbtree.max_node t = None);
  check_bool "remove" false (Rbtree.remove t "x")

let test_rb_succ_pred () =
  let t = tree_of_list [ ("a", 1); ("b", 2); ("c", 3) ] in
  let b = Option.get (Rbtree.find t "b") in
  Alcotest.(check (option string)) "next" (Some "c")
    (Option.map (fun n -> n.Rbtree.key) (Rbtree.next t b));
  Alcotest.(check (option string)) "prev" (Some "a")
    (Option.map (fun n -> n.Rbtree.key) (Rbtree.prev t b));
  let c = Option.get (Rbtree.find t "c") in
  check_bool "next of max" true (Rbtree.next t c = None)

(* Property: random interleaving of inserts/removes matches Map, and
   red-black invariants hold throughout. *)
let prop_rb_model =
  let open QCheck2 in
  let key_gen = Gen.map (fun n -> Printf.sprintf "k%02d" n) (Gen.int_bound 40) in
  let op_gen =
    Gen.oneof
      [
        Gen.map (fun k -> `Insert k) key_gen;
        Gen.map (fun k -> `Remove k) key_gen;
        Gen.map (fun k -> `InsertAfterHint k) key_gen;
      ]
  in
  Test.make ~name:"rbtree matches Map model" ~count:300 (Gen.list_size (Gen.int_range 0 200) op_gen)
    (fun ops ->
      let t = Rbtree.create ~dummy:0 () in
      let model = ref Smap.empty in
      let last_node = ref None in
      let step = ref 0 in
      List.iter
        (fun op ->
          incr step;
          (match op with
          | `Insert k ->
            let node, _ = Rbtree.insert t k !step in
            model := Smap.add k !step !model;
            last_node := Some node
          | `InsertAfterHint k -> (
            match !last_node with
            | Some hint ->
              let node, _ = Rbtree.insert_after t ~hint k !step in
              model := Smap.add k !step !model;
              last_node := Some node
            | None ->
              let node, _ = Rbtree.insert t k !step in
              model := Smap.add k !step !model;
              last_node := Some node)
          | `Remove k ->
            let removed = Rbtree.remove t k in
            if removed <> Smap.mem k !model then failwith "remove result mismatch";
            model := Smap.remove k !model);
          Rbtree.validate t)
        ops;
      Rbtree.to_list t = Smap.bindings !model)

(* Property: the kept maximum survives every mutation. Random inserts,
   hinted inserts, node removals and in-place rekeys; after each, the
   tree validates (the kept max is the last node) and a walk from past
   the max visits nothing. *)
let prop_rb_max =
  let open QCheck2 in
  let key_gen = Gen.map (fun n -> Printf.sprintf "k%02d" n) (Gen.int_bound 40) in
  let op_gen =
    Gen.oneof
      [
        Gen.map (fun k -> `Insert k) key_gen;
        Gen.map (fun k -> `Insert_after k) key_gen;
        Gen.map (fun i -> `Remove_node i) Gen.nat;
        Gen.map (fun i -> `Rekey i) Gen.nat;
      ]
  in
  Test.make ~name:"rbtree keeps its max" ~count:300 (Gen.list_size (Gen.int_range 0 200) op_gen)
    (fun ops ->
      let t = Rbtree.create ~dummy:0 () in
      let pick t i =
        let nodes = Rbtree.nodes_in_range t ~lo:"" ~hi:"\xff" in
        if nodes = [] then None else Some (List.nth nodes (i mod List.length nodes))
      in
      List.iteri
        (fun step op ->
          (match op with
          | `Insert k -> ignore (Rbtree.insert t k step)
          | `Insert_after k -> (
            match pick t step with
            | Some hint -> ignore (Rbtree.insert_after t ~hint k step)
            | None -> ignore (Rbtree.insert t k step))
          | `Remove_node i -> Option.iter (Rbtree.remove_node t) (pick t i)
          | `Rekey i -> (
            match pick t i with
            | None -> ()
            | Some n ->
              let k = n.Rbtree.key ^ "~" in
              let fits =
                match Rbtree.next t n with
                | Some s -> String.compare k s.Rbtree.key < 0
                | None -> true
              in
              if fits then Rbtree.rekey n k));
          Rbtree.validate t;
          match Rbtree.max_node t with
          | None -> if not (Rbtree.is_empty t) then failwith "no max in a nonempty tree"
          | Some m ->
            Rbtree.iter_range t ~lo:(m.Rbtree.key ^ "\x00") ~hi:"\xff" (fun _ ->
                failwith "a walk from past the max visited a node"))
        ops;
      true)

let prop_rb_range =
  let open QCheck2 in
  let key_gen = Gen.map (fun n -> Printf.sprintf "k%02d" n) (Gen.int_bound 40) in
  Test.make ~name:"rbtree iter_range matches Map filter" ~count:200
    Gen.(triple (list_size (int_range 0 100) key_gen) key_gen key_gen)
    (fun (keys, lo, hi) ->
      let t = Rbtree.create ~dummy:0 () in
      let model = ref Smap.empty in
      List.iteri
        (fun i k ->
          ignore (Rbtree.insert t k i);
          model := Smap.add k i !model)
        keys;
      let got = ref [] in
      Rbtree.iter_range t ~lo ~hi (fun n -> got := (n.Rbtree.key, n.Rbtree.value) :: !got);
      let expect =
        Smap.bindings !model
        |> List.filter (fun (k, _) -> String.compare lo k <= 0 && String.compare k hi < 0)
      in
      List.rev !got = expect)

(* ------------------------------------------------------------------ *)
(* Interval map                                                        *)

let test_imap_basic () =
  let im = Interval_map.create () in
  let h1 = Interval_map.add im ~lo:"a" ~hi:"m" 1 in
  let _h2 = Interval_map.add im ~lo:"f" ~hi:"z" 2 in
  let _h3 = Interval_map.add im ~lo:"a" ~hi:"c" 3 in
  Interval_map.validate im;
  let stab k =
    let acc = ref [] in
    Interval_map.stab im k (fun e -> acc := Interval_map.handle_data e :: !acc);
    List.sort compare !acc
  in
  check_list "stab b" [] [];
  Alcotest.(check (list int)) "stab b" [ 1; 3 ] (stab "b");
  Alcotest.(check (list int)) "stab g" [ 1; 2 ] (stab "g");
  Alcotest.(check (list int)) "stab x" [ 2 ] (stab "x");
  Alcotest.(check (list int)) "stab empty" [] (stab "zz");
  Interval_map.remove im h1;
  Interval_map.validate im;
  Alcotest.(check (list int)) "after remove" [ 3 ] (stab "b");
  check_int "size" 2 (Interval_map.size im)

let test_imap_boundaries () =
  let im = Interval_map.create () in
  ignore (Interval_map.add im ~lo:"b" ~hi:"d" 1);
  let stab k =
    let acc = ref [] in
    Interval_map.stab im k (fun e -> acc := Interval_map.handle_data e :: !acc);
    !acc
  in
  Alcotest.(check (list int)) "inclusive lo" [ 1 ] (stab "b");
  Alcotest.(check (list int)) "exclusive hi" [] (stab "d");
  Alcotest.check_raises "empty interval rejected" (Invalid_argument "Interval_map.add: empty interval")
    (fun () -> ignore (Interval_map.add im ~lo:"x" ~hi:"x" 9))

let prop_imap_stab =
  let open QCheck2 in
  let key_gen = Gen.map (fun n -> Printf.sprintf "%02d" n) (Gen.int_bound 30) in
  let ival_gen =
    Gen.map
      (fun (a, b) -> if String.compare a b < 0 then (a, b) else (b, a ^ "0"))
      (Gen.pair key_gen key_gen)
  in
  Test.make ~name:"interval stab matches naive" ~count:300
    Gen.(pair (list_size (int_range 0 60) ival_gen) key_gen)
    (fun (ivals, probe) ->
      let im = Interval_map.create () in
      let naive = ref [] in
      List.iteri
        (fun i (lo, hi) ->
          if String.compare lo hi < 0 then begin
            ignore (Interval_map.add im ~lo ~hi i);
            naive := (lo, hi, i) :: !naive
          end)
        ivals;
      Interval_map.validate im;
      let got = ref [] in
      Interval_map.stab im probe (fun e -> got := Interval_map.handle_data e :: !got);
      let expect =
        List.filter_map
          (fun (lo, hi, i) ->
            if String.compare lo probe <= 0 && String.compare probe hi < 0 then Some i else None)
          !naive
      in
      List.sort compare !got = List.sort compare expect)

let prop_imap_overlap =
  let open QCheck2 in
  let key_gen = Gen.map (fun n -> Printf.sprintf "%02d" n) (Gen.int_bound 30) in
  let ival_gen = Gen.pair key_gen key_gen in
  Test.make ~name:"interval overlap matches naive" ~count:300
    Gen.(pair (list_size (int_range 0 60) ival_gen) ival_gen)
    (fun (ivals, (qlo, qhi)) ->
      let im = Interval_map.create () in
      let naive = ref [] in
      List.iteri
        (fun i (lo, hi) ->
          if String.compare lo hi < 0 then begin
            ignore (Interval_map.add im ~lo ~hi i);
            naive := (lo, hi, i) :: !naive
          end)
        ivals;
      let got = ref [] in
      Interval_map.iter_overlapping im ~lo:qlo ~hi:qhi (fun e ->
          got := Interval_map.handle_data e :: !got);
      let expect =
        List.filter_map
          (fun (lo, hi, i) ->
            if Strkey.range_overlaps (lo, hi) (qlo, qhi) then Some i else None)
          !naive
      in
      (* and the entries over exactly the query range, newest first *)
      let exact = List.map Interval_map.handle_data (Interval_map.exact im ~lo:qlo ~hi:qhi) in
      let expect_exact =
        List.filter_map (fun (lo, hi, i) -> if lo = qlo && hi = qhi then Some i else None) !naive
      in
      List.sort compare !got = List.sort compare expect && exact = expect_exact)

(* removal under load keeps the tree consistent *)
let prop_imap_remove =
  let open QCheck2 in
  let key_gen = Gen.map (fun n -> Printf.sprintf "%02d" n) (Gen.int_bound 20) in
  Test.make ~name:"interval add/remove keeps invariants" ~count:200
    Gen.(list_size (int_range 0 80) (pair key_gen key_gen))
    (fun ivals ->
      let im = Interval_map.create () in
      let handles = ref [] in
      List.iteri
        (fun i (lo, hi) ->
          if String.compare lo hi < 0 then handles := Interval_map.add im ~lo ~hi i :: !handles)
        ivals;
      (* remove every other handle *)
      List.iteri (fun i h -> if i mod 2 = 0 then Interval_map.remove im h) !handles;
      Interval_map.validate im;
      (* removing again is a no-op *)
      List.iteri (fun i h -> if i mod 2 = 0 then Interval_map.remove im h) !handles;
      Interval_map.validate im;
      let kept = List.filteri (fun i _ -> i mod 2 = 1) !handles in
      Interval_map.size im = List.length kept)

(* ------------------------------------------------------------------ *)
(* Range map                                                           *)

let test_rmap_basic () =
  let rm = Range_map.create () in
  Range_map.set rm ~lo:"a" ~hi:"m" 1;
  Range_map.set rm ~lo:"m" ~hi:"z" 2;
  Range_map.validate rm;
  let find k = Option.map (fun (_, _, v) -> v) (Range_map.find rm k) in
  Alcotest.(check (option int)) "in first" (Some 1) (find "b");
  Alcotest.(check (option int)) "boundary" (Some 2) (find "m");
  Alcotest.(check (option int)) "outside" None (find "zz")

let test_rmap_split_overwrite () =
  let rm = Range_map.create () in
  Range_map.set rm ~lo:"a" ~hi:"z" 1;
  Range_map.set rm ~lo:"f" ~hi:"m" 2;
  Range_map.validate rm;
  Alcotest.(check (list (triple string string int)))
    "split pieces"
    [ ("a", "f", 1); ("f", "m", 2); ("m", "z", 1) ]
    (Range_map.to_list rm)

let test_rmap_iter_cover_gaps () =
  let rm = Range_map.create () in
  Range_map.set rm ~lo:"c" ~hi:"f" 1;
  Range_map.set rm ~lo:"h" ~hi:"k" 2;
  let pieces = ref [] in
  Range_map.iter_cover rm ~lo:"a" ~hi:"z" (fun lo hi v -> pieces := (lo, hi, v) :: !pieces);
  Alcotest.(check (list (triple string string (option int))))
    "cover with gaps"
    [ ("a", "c", None); ("c", "f", Some 1); ("f", "h", None); ("h", "k", Some 2); ("k", "z", None) ]
    (List.rev !pieces)

let test_rmap_clear_range () =
  let rm = Range_map.create () in
  Range_map.set rm ~lo:"a" ~hi:"z" 7;
  Range_map.clear_range rm ~lo:"f" ~hi:"m";
  Range_map.validate rm;
  Alcotest.(check (list (triple string string int)))
    "trimmed" [ ("a", "f", 7); ("m", "z", 7) ] (Range_map.to_list rm)

let test_rmap_update_range () =
  let rm = Range_map.create () in
  Range_map.set rm ~lo:"a" ~hi:"m" 1;
  Range_map.update_range rm ~lo:"f" ~hi:"r" (fun _ _ v ->
      match v with Some x -> Some (x + 10) | None -> Some 99);
  Range_map.validate rm;
  Alcotest.(check (list (triple string string int)))
    "updated"
    [ ("a", "f", 1); ("f", "m", 11); ("m", "r", 99) ]
    (Range_map.to_list rm)

let prop_rmap_model =
  let open QCheck2 in
  let key_gen = Gen.map (fun n -> Printf.sprintf "%02d" n) (Gen.int_bound 20) in
  let op_gen =
    Gen.oneof
      [
        Gen.map (fun (a, b) -> `Set (a, b)) (Gen.pair key_gen key_gen);
        Gen.map (fun (a, b) -> `Clear (a, b)) (Gen.pair key_gen key_gen);
      ]
  in
  Test.make ~name:"range map matches point-wise model" ~count:300
    (Gen.list_size (Gen.int_range 0 40) op_gen)
    (fun ops ->
      let rm = Range_map.create () in
      (* model: value at each probe point *)
      let probes = List.init 22 (fun i -> Printf.sprintf "%02d" i) in
      let model = Hashtbl.create 32 in
      List.iteri
        (fun step op ->
          match op with
          | `Set (a, b) when String.compare a b < 0 ->
            Range_map.set rm ~lo:a ~hi:b step;
            List.iter
              (fun p -> if Strkey.in_range ~lo:a ~hi:b p then Hashtbl.replace model p step)
              probes
          | `Clear (a, b) ->
            Range_map.clear_range rm ~lo:a ~hi:b;
            List.iter
              (fun p -> if Strkey.in_range ~lo:a ~hi:b p then Hashtbl.remove model p)
              probes
          | `Set _ -> ())
        ops;
      Range_map.validate rm;
      List.for_all
        (fun p ->
          let got = Option.map (fun (_, _, v) -> v) (Range_map.find rm p) in
          got = Hashtbl.find_opt model p)
        probes)

(* splitting a range must duplicate mutable state, not share it *)
let test_rmap_dup_on_split () =
  let rm = Range_map.create ~dup:(fun r -> ref !r) () in
  Range_map.set rm ~lo:"a" ~hi:"z" (ref 1);
  Range_map.clear_range rm ~lo:"f" ~hi:"m";
  (match Range_map.to_list rm with
  | [ (_, _, left); (_, _, right) ] ->
    left := 42;
    check_int "right unaffected" 1 !right
  | _ -> Alcotest.fail "expected two pieces")

(* Random op sequences against a sorted-list reference of
   [(lo, hi, content)] pieces. Map values are [int ref]s duplicated on
   split, so a remainder that shared its value with the piece an
   [update_range] callback mutates would show the mutation and diverge
   from the reference; distinct pieces must also hold distinct refs.
   After every step the map validates and holds exactly the reference's
   pieces. *)
type rmap_op =
  | R_set of string * string
  | R_clear of string * string
  | R_update of string * string (* some pieces mutated, cleared, gaps filled *)
  | R_coalesce of string * string
  | R_coalesce_piece of string (* around the piece holding the key, if any *)
  | R_find of string
  | R_overlapping of string * string
  | R_cover of string * string

let rmap_model_clear l ~lo ~hi =
  if String.compare lo hi >= 0 then l
  else
    List.concat_map
      (fun (a, b, c) ->
        if String.compare b lo <= 0 || String.compare a hi >= 0 then [ (a, b, c) ]
        else
          (if String.compare a lo < 0 then [ (a, lo, c) ] else [])
          @ if String.compare hi b < 0 then [ (hi, b, c) ] else [])
      l

let rmap_model_cover l ~lo ~hi =
  let cursor = ref lo and out = ref [] in
  List.iter
    (fun (a, b, c) ->
      let a' = Strkey.max_str a lo and b' = Strkey.min_str b hi in
      if String.compare a' b' < 0 then begin
        if String.compare !cursor a' < 0 then out := (!cursor, a', None) :: !out;
        out := (a', b', Some c) :: !out;
        cursor := b'
      end)
    l;
  if String.compare !cursor hi < 0 then out := (!cursor, hi, None) :: !out;
  List.rev !out

let rmap_model_coalesce l ~lo ~hi =
  let start =
    List.fold_left (fun acc (a, _, _) -> if String.compare a lo < 0 then a else acc) lo l
  in
  let rec go = function
    | (a, b, c) :: (a2, b2, c2) :: rest
      when String.compare start a <= 0 && String.compare a2 hi <= 0 && String.equal b a2
           && c = c2 ->
      go ((a, b2, c) :: rest)
    | p :: rest -> p :: go rest
    | [] -> []
  in
  go l

(* Run [ops] on a fresh map beside the reference; [what i] names step
   [i] in a failure. *)
let run_rmap_ops ~what ops =
  let sorted l = List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) l in
  (* the callback's decision depends only on the piece and the op *)
  let decide l k = Hashtbl.hash (l, k) mod 3 in
  let rm = Range_map.create ~dup:(fun r -> ref !r) () in
  let model = ref [] in
  let contents () = List.map (fun (a, b, r) -> (a, b, !r)) (Range_map.to_list rm) in
  let opt r = Option.map ( ! ) r in
  List.iteri
    (fun i op ->
      let step = i + 1 in
      let what = what step in
      (match op with
      | R_set (a, b) ->
        if String.compare a b < 0 then begin
          Range_map.set rm ~lo:a ~hi:b (ref step);
          model := sorted ((a, b, step) :: rmap_model_clear !model ~lo:a ~hi:b)
        end
      | R_clear (a, b) ->
        Range_map.clear_range rm ~lo:a ~hi:b;
        model := rmap_model_clear !model ~lo:a ~hi:b
      | R_update (a, b) ->
        let seen = ref [] in
        Range_map.update_range rm ~lo:a ~hi:b (fun l h v ->
            seen := (l, h, opt v) :: !seen;
            match (v, decide l step) with
            | Some r, 0 ->
              r := !r + 100;
              Some r
            | Some _, 1 | None, 0 -> None
            | _ -> Some (ref step));
        let pieces = rmap_model_cover !model ~lo:a ~hi:b in
        Alcotest.(check (list (triple string string (option int))))
          (what ^ ": update_range callbacks") pieces (List.rev !seen);
        let rewritten =
          List.filter_map
            (fun (l, h, c) ->
              match (c, decide l step) with
              | Some c, 0 -> Some (l, h, c + 100)
              | Some _, 1 | None, 0 -> None
              | _ -> Some (l, h, step))
            pieces
        in
        model := sorted (rewritten @ rmap_model_clear !model ~lo:a ~hi:b)
      | R_coalesce (a, b) ->
        Range_map.coalesce rm ~lo:a ~hi:b ~eq:(fun x y -> !x = !y);
        model := rmap_model_coalesce !model ~lo:a ~hi:b
      | R_coalesce_piece a -> (
        match Range_map.find_piece rm a with
        | Some p ->
          let l, h = Range_map.piece_bounds p in
          Range_map.coalesce_piece rm p ~eq:(fun x y -> !x = !y);
          model := rmap_model_coalesce !model ~lo:l ~hi:h
        | None -> ())
      | R_find a ->
        let got = Option.map (fun (l, h, r) -> (l, h, !r)) (Range_map.find rm a) in
        let want =
          List.find_opt
            (fun (l, h, _) -> String.compare l a <= 0 && String.compare a h < 0)
            !model
        in
        Alcotest.(check (option (triple string string int))) (what ^ ": find") want got
      | R_overlapping (a, b) ->
        Alcotest.(check (list (triple string string int)))
          (what ^ ": overlapping")
          (List.filter
             (fun (l, h, _) ->
               String.compare a b < 0 && String.compare l b < 0 && String.compare a h < 0)
             !model)
          (List.map (fun (l, h, r) -> (l, h, !r)) (Range_map.overlapping rm ~lo:a ~hi:b))
      | R_cover (a, b) ->
        let got = ref [] in
        Range_map.iter_cover rm ~lo:a ~hi:b (fun l h v -> got := (l, h, opt v) :: !got);
        Alcotest.(check (list (triple string string (option int))))
          (what ^ ": iter_cover") (rmap_model_cover !model ~lo:a ~hi:b) (List.rev !got));
      Range_map.validate rm;
      Alcotest.(check (list (triple string string int))) (what ^ ": pieces") !model (contents ());
      check_int (what ^ ": cardinal") (List.length !model) (Range_map.cardinal rm);
      let refs = List.map (fun (_, _, r) -> r) (Range_map.to_list rm) in
      check_bool (what ^ ": no shared values") true
        (List.for_all (fun r -> List.length (List.filter (( == ) r) refs) = 1) refs))
    ops

let test_rmap_model () =
  let key rng = Printf.sprintf "%02d" (Rng.int rng 16) in
  for seed = 1 to 200 do
    let rng = Test_util.rng_of 23 seed in
    let ops =
      List.init 60 (fun _ ->
          let a = key rng and b = key rng in
          match Rng.int rng 7 with
          | 0 when String.compare a b < 0 -> R_set (a, b)
          | 0 | 1 -> R_clear (a, b)
          | 2 -> R_update (a, b)
          | 3 -> R_coalesce (a, b)
          | 4 -> R_find a
          | 5 -> R_overlapping (a, b)
          | _ -> R_cover (a, b))
    in
    run_rmap_ops ~what:(Printf.sprintf "seed %d step %d" seed) ops
  done

(* The same reference, under generated op lists that QCheck shrinks: the
   single-descent [update_range] and its in-place splits, gap fills and
   removals against every other operation. Keys of two lengths make
   pieces meet at prefixes ("05" < "05a" < "06"). *)
let prop_rmap_sorted_model =
  let open QCheck2 in
  let key =
    Gen.map2
      (fun n tail -> Printf.sprintf "%02d%s" n (if tail then "a" else ""))
      (Gen.int_bound 12) Gen.bool
  in
  let pair f = Gen.map2 f key key in
  let op =
    Gen.frequency
      [ (3, pair (fun a b -> R_set (a, b)));
        (2, pair (fun a b -> R_clear (a, b)));
        (4, pair (fun a b -> R_update (a, b)));
        (2, pair (fun a b -> R_coalesce (a, b)));
        (2, Gen.map (fun a -> R_coalesce_piece a) key);
        (1, Gen.map (fun a -> R_find a) key);
        (1, pair (fun a b -> R_overlapping (a, b)));
        (1, pair (fun a b -> R_cover (a, b))) ]
  in
  let print = function
    | R_set (a, b) -> Printf.sprintf "set %s %s" a b
    | R_clear (a, b) -> Printf.sprintf "clear %s %s" a b
    | R_update (a, b) -> Printf.sprintf "update %s %s" a b
    | R_coalesce (a, b) -> Printf.sprintf "coalesce %s %s" a b
    | R_coalesce_piece a -> Printf.sprintf "coalesce_piece %s" a
    | R_find a -> Printf.sprintf "find %s" a
    | R_overlapping (a, b) -> Printf.sprintf "overlapping %s %s" a b
    | R_cover (a, b) -> Printf.sprintf "cover %s %s" a b
  in
  Test.make ~name:"range map matches sorted-list model" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map print ops))
    (Gen.list_size (Gen.int_range 0 50) op)
    (fun ops ->
      run_rmap_ops ~what:(Printf.sprintf "step %d") ops;
      true)

(* ------------------------------------------------------------------ *)
(* Table and Store                                                     *)

let test_table_basic () =
  let tbl = Table.create ~name:"p" ~dummy:"" () in
  ignore (Table.put tbl "p|bob|100" "hi");
  ignore (Table.put tbl "p|ann|120" "yo");
  Alcotest.(check (option string)) "get" (Some "hi") (Table.get tbl "p|bob|100");
  check_int "size" 2 (Table.size tbl);
  Alcotest.(check (option string)) "remove" (Some "yo") (Table.remove tbl "p|ann|120");
  check_int "size after" 1 (Table.size tbl);
  check_bool "memory positive" true (Table.memory_bytes tbl > 0)

let test_table_subtables () =
  let tbl = Table.create ~subtable_depth:2 ~name:"t" ~dummy:"" () in
  ignore (Table.put tbl "t|ann|100|bob" "x");
  ignore (Table.put tbl "t|ann|200|liz" "y");
  ignore (Table.put tbl "t|bob|150|ann" "z");
  check_int "two subtables" 2 (Table.subtable_count tbl);
  (* a key too short for a boundary is its own group and must not
     capture the keys that follow it *)
  ignore (Table.put tbl "t|" "short");
  ignore (Table.put tbl "t|cal|100|ann" "w");
  check_bool "cal's key in cal's group" true (Table.get tbl "t|cal|100|ann" = Some "w");
  check_int "short key under its own group" 4 (Table.subtable_count tbl);
  ignore (Table.remove tbl "t|");
  ignore (Table.remove tbl "t|cal|100|ann");
  (* scan within one subtable *)
  Alcotest.(check (list (pair string string)))
    "within"
    [ ("t|ann|100|bob", "x"); ("t|ann|200|liz", "y") ]
    (Table.range_to_list tbl ~lo:"t|ann|" ~hi:"t|ann}");
  (* scan crossing subtables stays globally ordered *)
  Alcotest.(check (list (pair string string)))
    "across"
    [ ("t|ann|100|bob", "x"); ("t|ann|200|liz", "y"); ("t|bob|150|ann", "z") ]
    (Table.range_to_list tbl ~lo:"t|" ~hi:"t}");
  Table.validate tbl

let prop_table_subtable_scan =
  let open QCheck2 in
  let key_gen =
    Gen.map
      (fun (a, b, c) -> Printf.sprintf "t|u%d|%02d|p%d" a b c)
      (Gen.triple (Gen.int_bound 5) (Gen.int_bound 30) (Gen.int_bound 5))
  in
  let bound_gen =
    Gen.oneof
      [ key_gen; Gen.map (fun a -> Printf.sprintf "t|u%d|" a) (Gen.int_bound 6); Gen.pure "t|" ]
  in
  Test.make ~name:"subtable scan equals flat scan" ~count:300
    Gen.(triple (list_size (int_range 0 80) key_gen) bound_gen bound_gen)
    (fun (keys, b1, b2) ->
      let lo = Strkey.min_str b1 b2 and hi = Strkey.max_str b1 b2 in
      let sub = Table.create ~subtable_depth:2 ~name:"t" ~dummy:0 () in
      let flat = Table.create ~name:"t" ~dummy:0 () in
      List.iteri
        (fun i k ->
          ignore (Table.put sub k i);
          ignore (Table.put flat k i))
        keys;
      Table.range_to_list sub ~lo ~hi = Table.range_to_list flat ~lo ~hi)

let test_table_put_hint () =
  let tbl = Table.create ~subtable_depth:2 ~name:"t" ~dummy:"" () in
  let h1, _ = Table.put tbl "t|ann|100|bob" "a" in
  let h2, old = Table.put ~hint:h1 tbl "t|ann|120|bob" "b" in
  check_bool "fresh" true (old = None);
  (* hint from a different subtable must not corrupt anything *)
  let _h3, _ = Table.put ~hint:h2 tbl "t|bob|050|ann" "c" in
  Table.validate tbl;
  Alcotest.(check (list (pair string string)))
    "order"
    [ ("t|ann|100|bob", "a"); ("t|ann|120|bob", "b"); ("t|bob|050|ann", "c") ]
    (Table.range_to_list tbl ~lo:"t|" ~hi:"t}")

(* A subtable goes with its last pair: [subtable_count] falls, the
   memory charge falls with it, and a group that comes back gets a
   fresh subtable. *)
let test_table_subtable_lifecycle () =
  let tbl = Table.create ~subtable_depth:2 ~name:"t" ~dummy:"" () in
  let base = Table.memory_bytes tbl in
  let keys u = List.init 3 (fun i -> Printf.sprintf "t|%s|%03d" u i) in
  List.iter (fun k -> ignore (Table.put tbl k "x")) (keys "ann" @ keys "bob");
  check_int "two subtables" 2 (Table.subtable_count tbl);
  let two = Table.memory_bytes tbl in
  List.iter (fun k -> ignore (Table.put tbl k "x")) (keys "cal");
  let three = Table.memory_bytes tbl in
  check_int "a group is charged its subtable"
    (Table.subtable_overhead + (3 * (String.length "t|cal|000" + Table.node_overhead)))
    (three - two);
  (* the last-group cache names bob's subtable when it goes *)
  check_bool "bob's pairs found" true (Table.get tbl "t|bob|001" = Some "x");
  List.iter (fun k -> ignore (Table.remove tbl k)) (keys "bob");
  check_int "an emptied group drops its subtable" 2 (Table.subtable_count tbl);
  Table.validate tbl;
  check_bool "bob's range is empty" true (Table.range_to_list tbl ~lo:"t|bob|" ~hi:"t|bob}" = []);
  ignore (Table.put tbl "t|bob|009" "y");
  check_int "and a returning group gets a fresh one" 3 (Table.subtable_count tbl);
  List.iter (fun k -> ignore (Table.remove tbl k)) ("t|bob|009" :: keys "ann" @ keys "cal");
  check_int "every group gone" 0 (Table.subtable_count tbl);
  check_int "nothing charged" base (Table.memory_bytes tbl);
  Table.validate tbl

(* A boundary declared for a table that already holds pairs re-lays it
   out; the shallowest of several boundaries wins. *)
let test_store_add_boundary () =
  let st = Store.create ~dummy:"" () in
  List.iter (fun k -> ignore (Store.put st k k)) [ "t|ann|1|x"; "t|ann|2|y"; "t|bob|1|z" ];
  let tbl = Store.table st "t" in
  check_int "one tree" 1 (Table.subtable_count tbl);
  Store.add_boundary st "t" 3;
  check_int "three groups at depth 3" 3 (Table.subtable_count tbl);
  Store.add_boundary st "t" 2;
  check_int "two at depth 2" 2 (Table.subtable_count tbl);
  Store.add_boundary st "t" 4;
  check_bool "the shallower boundary stays" true (Table.subtable_depth tbl = Some 2);
  Table.validate tbl;
  Alcotest.(check (list string))
    "same pairs, same order"
    [ "t|ann|1|x"; "t|ann|2|y"; "t|bob|1|z" ]
    (List.map fst (Store.range_to_list st ~lo:"t|" ~hi:"t}"))

let test_table_remove_range () =
  let tbl = Table.create ~name:"p" ~dummy:0 () in
  for i = 0 to 9 do
    ignore (Table.put tbl (Printf.sprintf "p|u|%d" i) i)
  done;
  check_int "removed" 4 (Table.remove_range tbl ~lo:"p|u|3" ~hi:"p|u|7");
  check_int "left" 6 (Table.size tbl)

let test_store_routing () =
  let st = Store.create ~dummy:"" () in
  ignore (Store.put st "p|bob|1" "post");
  ignore (Store.put st "s|ann|bob" "1");
  ignore (Store.put st "t|ann|1|bob" "post");
  check_int "three tables" 3 (List.length (Store.tables st));
  Alcotest.(check string) "table name" "p" (Store.table_name_of "p|bob|1");
  (* cross-table scan in global order *)
  Alcotest.(check (list (pair string string)))
    "global scan"
    [ ("p|bob|1", "post"); ("s|ann|bob", "1"); ("t|ann|1|bob", "post") ]
    (Store.range_to_list st ~lo:"" ~hi:"\xfe");
  Alcotest.(check (option string)) "get" (Some "1") (Store.get st "s|ann|bob");
  check_bool "invalid key rejected" true
    (match Store.put st "bad\xffkey" "v" with
    | exception Strkey.Invalid_key _ -> true
    | _ -> false)

let test_fold_range_stop () =
  (* early-exit fold at both layers, including ranges that cross
     subtable and table boundaries *)
  let tbl = Table.create ~subtable_depth:2 ~name:"t" ~dummy:"" () in
  ignore (Table.put tbl "t|ann|100" "a");
  ignore (Table.put tbl "t|ann|200" "b");
  ignore (Table.put tbl "t|bob|100" "c");
  ignore (Table.put tbl "t|bob|200" "d");
  let visited = ref 0 in
  let first n =
    visited := 0;
    List.rev
      (snd
         (Table.fold_range_stop tbl ~lo:"t|" ~hi:"t}" ~init:(0, []) (fun (c, acc) k _ ->
              incr visited;
              let st = (c + 1, k :: acc) in
              if c + 1 >= n then `Stop st else `Continue st)))
  in
  Alcotest.(check (list string)) "limit 1" [ "t|ann|100" ] (first 1);
  check_int "stop visits nothing extra" 1 !visited;
  (* limit 3 crosses the ann/bob subtable boundary *)
  Alcotest.(check (list string))
    "limit 3 across subtables"
    [ "t|ann|100"; "t|ann|200"; "t|bob|100" ]
    (first 3);
  check_int "visited exactly 3" 3 !visited;
  Alcotest.(check (list string))
    "limit past end returns all"
    [ "t|ann|100"; "t|ann|200"; "t|bob|100"; "t|bob|200" ]
    (first 10);
  let st = Store.create ~dummy:"" () in
  List.iter
    (fun (k, v) -> ignore (Store.put st k v))
    [ ("a|1", "1"); ("a|2", "2"); ("b|1", "3"); ("b|2", "4") ];
  (* limit 3 crosses the a/b table boundary at the facade *)
  Alcotest.(check (list string))
    "store limit across tables"
    [ "a|1"; "a|2"; "b|1" ]
    (List.rev
       (snd
          (Store.fold_range_stop st ~lo:"" ~hi:"\xfe" ~init:(0, []) (fun (c, acc) k _ ->
               let s = (c + 1, k :: acc) in
               if c + 1 >= 3 then `Stop s else `Continue s))))

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)

let test_lru_order () =
  let l = Lru.create () in
  let a = Lru.add l "a" in
  let _b = Lru.add l "b" in
  let _c = Lru.add l "c" in
  check_int "len" 3 (Lru.length l);
  Lru.touch l a;
  Alcotest.(check (option string)) "lru is b" (Some "b") (Lru.pop_lru l);
  Alcotest.(check (option string)) "then c" (Some "c") (Lru.pop_lru l);
  Alcotest.(check (option string)) "then a" (Some "a") (Lru.pop_lru l);
  Alcotest.(check (option string)) "empty" None (Lru.pop_lru l)

let test_lru_remove () =
  let l = Lru.create () in
  let a = Lru.add l 1 in
  let b = Lru.add l 2 in
  Lru.remove l a;
  check_bool "unlinked" false (Lru.is_linked a);
  Lru.remove l a;
  check_int "len" 1 (Lru.length l);
  Lru.touch l a;
  check_int "touch of removed is noop" 1 (Lru.length l);
  check_bool "b still linked" true (Lru.is_linked b)

(* ------------------------------------------------------------------ *)
(* Strkey                                                              *)

let test_strkey () =
  Alcotest.(check string) "prefix_upper" "t|ann}" (Strkey.prefix_upper "t|ann|");
  check_bool "upper bound works" true (String.compare "t|ann|zzzz" (Strkey.prefix_upper "t|ann|") < 0);
  (* like the paper's t|ann} bound, non-prefix keys may sort inside the
     range; pattern matching filters them. What matters is coverage: *)
  check_bool "all prefixed keys covered" true
    (String.compare "t|ann|\x00" (Strkey.prefix_upper "t|ann|") < 0);
  Alcotest.(check string) "prefix_upper bumps last byte" "t|ann\xff" (Strkey.prefix_upper "t|ann\xfe");
  Alcotest.(check string) "prefix_upper carries past 0xff" "t|ano" (Strkey.prefix_upper "t|ann\xff");
  Alcotest.(check string) "encode" "0000000042" (Strkey.encode_time 42);
  check_int "decode" 42 (Strkey.decode_int "0000000042");
  check_bool "fixed width sorts" true
    (String.compare (Strkey.encode_time 99) (Strkey.encode_time 100) < 0);
  check_bool "overlap" true (Strkey.range_overlaps ("a", "c") ("b", "d"));
  check_bool "no overlap touching" false (Strkey.range_overlaps ("a", "b") ("b", "c"));
  Alcotest.(check (option (pair string string))) "inter" (Some ("b", "c"))
    (Strkey.range_inter ("a", "c") ("b", "d"));
  Alcotest.(check (option (pair string string))) "inter empty" None
    (Strkey.range_inter ("a", "b") ("c", "d"));
  Alcotest.(check string) "key_after orders" "a\x00" (Strkey.key_after "a");
  Alcotest.(check string) "common_prefix" "t|a" (Strkey.common_prefix "t|ann" "t|abe")

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed same stream" xs ys;
  let c = Rng.create 43 in
  let zs = List.init 20 (fun _ -> Rng.int c 1000) in
  check_bool "different seed differs" true (xs <> zs)

let test_rng_zipf_skew () =
  let rng = Rng.create 7 in
  let dist = Rng.Zipf.create ~n:1000 ~s:1.0 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 20000 do
    let r = Rng.Zipf.sample dist rng in
    counts.(r) <- counts.(r) + 1
  done;
  check_bool "rank 0 beats rank 100" true (counts.(0) > counts.(100));
  check_bool "rank 0 well populated" true (counts.(0) > 1000)

let test_rng_alias () =
  let rng = Rng.create 9 in
  let dist = Rng.Alias.create [| 0.0; 1.0; 3.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 10000 do
    let i = Rng.Alias.sample dist rng in
    counts.(i) <- counts.(i) + 1
  done;
  check_int "zero weight never drawn" 0 counts.(0);
  check_bool "3:1 ratio approx" true (counts.(2) > 2 * counts.(1))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "store"
    [
      ( "rbtree",
        [
          Alcotest.test_case "basic" `Quick test_rb_basic;
          Alcotest.test_case "overwrite" `Quick test_rb_overwrite;
          Alcotest.test_case "remove" `Quick test_rb_remove;
          Alcotest.test_case "lower_bound" `Quick test_rb_lower_bound;
          Alcotest.test_case "iter_range" `Quick test_rb_iter_range;
          Alcotest.test_case "node identity" `Quick test_rb_node_identity_after_remove;
          Alcotest.test_case "insert_after" `Quick test_rb_insert_after_fast_path;
          Alcotest.test_case "sequential append" `Quick test_rb_sequential_append;
          Alcotest.test_case "empty" `Quick test_rb_empty;
          Alcotest.test_case "succ/pred" `Quick test_rb_succ_pred;
        ] );
      ("rbtree-props", qsuite [ prop_rb_model; prop_rb_range; prop_rb_max ]);
      ( "interval_map",
        [
          Alcotest.test_case "basic" `Quick test_imap_basic;
          Alcotest.test_case "boundaries" `Quick test_imap_boundaries;
        ] );
      ("interval_map-props", qsuite [ prop_imap_stab; prop_imap_overlap; prop_imap_remove ]);
      ( "range_map",
        [
          Alcotest.test_case "basic" `Quick test_rmap_basic;
          Alcotest.test_case "split overwrite" `Quick test_rmap_split_overwrite;
          Alcotest.test_case "cover gaps" `Quick test_rmap_iter_cover_gaps;
          Alcotest.test_case "clear range" `Quick test_rmap_clear_range;
          Alcotest.test_case "update range" `Quick test_rmap_update_range;
          Alcotest.test_case "dup on split" `Quick test_rmap_dup_on_split;
          Alcotest.test_case "seeded model" `Quick test_rmap_model;
        ] );
      ("range_map-props", qsuite [ prop_rmap_model; prop_rmap_sorted_model ]);
      ( "table",
        [
          Alcotest.test_case "basic" `Quick test_table_basic;
          Alcotest.test_case "subtables" `Quick test_table_subtables;
          Alcotest.test_case "put hint" `Quick test_table_put_hint;
          Alcotest.test_case "remove range" `Quick test_table_remove_range;
          Alcotest.test_case "subtable lifecycle" `Quick test_table_subtable_lifecycle;
        ] );
      ("table-props", qsuite [ prop_table_subtable_scan ]);
      ( "store",
        [
          Alcotest.test_case "routing" `Quick test_store_routing;
          Alcotest.test_case "fold_range_stop" `Quick test_fold_range_stop;
          Alcotest.test_case "boundaries re-lay tables out" `Quick test_store_add_boundary;
        ] );
      ( "lru",
        [
          Alcotest.test_case "order" `Quick test_lru_order;
          Alcotest.test_case "remove" `Quick test_lru_remove;
        ] );
      ( "util",
        [
          Alcotest.test_case "strkey" `Quick test_strkey;
          Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "alias sampler" `Quick test_rng_alias;
        ] );
    ]
