(** Interval tree over half-open string ranges [\[lo, hi)].

    Pequod stores updaters in an interval tree (§3.2): every modification to
    a key [k] must find all updaters whose source range contains [k]
    (a stabbing query) in O(log n + matches). This is an AVL tree keyed by
    [lo], with a per-subtree maximum [hi] augmentation; entries sharing a
    [lo] are bucketed in the node. Entries are removable by handle. *)

type 'a entry = { lo : string; hi : string; id : int; data : 'a }

type 'a handle = 'a entry

type 'a tree =
  | Leaf
  | Node of {
      l : 'a tree;
      lo : string;
      entries : 'a entry list;
      max_hi : string;
      r : 'a tree;
      height : int;
    }

type 'a t = { mutable root : 'a tree; mutable next_id : int; mutable count : int }

let create () = { root = Leaf; next_id = 0; count = 0 }

let size t = t.count
let handle_data (h : 'a handle) = h.data
let handle_range (h : 'a handle) = (h.lo, h.hi)

let height = function Leaf -> 0 | Node n -> n.height
let max_hi_of = function Leaf -> "" | Node n -> n.max_hi

let entries_max_hi entries =
  List.fold_left (fun acc e -> Strkey.max_str acc e.hi) "" entries

let mk l lo entries r =
  let max_hi =
    Strkey.max_str (entries_max_hi entries) (Strkey.max_str (max_hi_of l) (max_hi_of r))
  in
  Node { l; lo; entries; max_hi; r; height = 1 + max (height l) (height r) }

let balance l lo entries r =
  let hl = height l and hr = height r in
  if hl > hr + 1 then
    match l with
    | Leaf -> assert false
    | Node ln ->
      if height ln.l >= height ln.r then mk ln.l ln.lo ln.entries (mk ln.r lo entries r)
      else (
        match ln.r with
        | Leaf -> assert false
        | Node lrn ->
          mk (mk ln.l ln.lo ln.entries lrn.l) lrn.lo lrn.entries (mk lrn.r lo entries r))
  else if hr > hl + 1 then
    match r with
    | Leaf -> assert false
    | Node rn ->
      if height rn.r >= height rn.l then mk (mk l lo entries rn.l) rn.lo rn.entries rn.r
      else (
        match rn.l with
        | Leaf -> assert false
        | Node rln ->
          mk (mk l lo entries rln.l) rln.lo rln.entries (mk rln.r rn.lo rn.entries rn.r))
  else mk l lo entries r

let rec insert_tree tree entry =
  match tree with
  | Leaf -> mk Leaf entry.lo [ entry ] Leaf
  | Node n ->
    let c = String.compare entry.lo n.lo in
    if c = 0 then mk n.l n.lo (entry :: n.entries) n.r
    else if c < 0 then balance (insert_tree n.l entry) n.lo n.entries n.r
    else balance n.l n.lo n.entries (insert_tree n.r entry)

let rec pop_min = function
  | Leaf -> invalid_arg "Interval_map.pop_min"
  | Node { l = Leaf; lo; entries; r; _ } -> ((lo, entries), r)
  | Node n ->
    let m, l' = pop_min n.l in
    (m, balance l' n.lo n.entries n.r)

let rec remove_tree tree lo id =
  match tree with
  | Leaf -> (Leaf, false)
  | Node n ->
    let c = String.compare lo n.lo in
    if c < 0 then
      let l', removed = remove_tree n.l lo id in
      (balance l' n.lo n.entries n.r, removed)
    else if c > 0 then
      let r', removed = remove_tree n.r lo id in
      (balance n.l n.lo n.entries r', removed)
    else
      let remaining = List.filter (fun e -> e.id <> id) n.entries in
      let removed = List.length remaining <> List.length n.entries in
      if remaining <> [] then (mk n.l n.lo remaining n.r, removed)
      else if n.r = Leaf then (n.l, removed)
      else
        let (mlo, mentries), r' = pop_min n.r in
        (balance n.l mlo mentries r', removed)

(** Add the interval [\[lo, hi)] carrying [data]; returns a handle for
    removal. Empty intervals are rejected. *)
let add t ~lo ~hi data =
  if String.compare lo hi >= 0 then invalid_arg "Interval_map.add: empty interval";
  let entry = { lo; hi; id = t.next_id; data } in
  t.next_id <- t.next_id + 1;
  t.root <- insert_tree t.root entry;
  t.count <- t.count + 1;
  entry

(** Remove a previously added entry. Idempotent. *)
let remove t (h : 'a handle) =
  let root', removed = remove_tree t.root h.lo h.id in
  if removed then begin
    t.root <- root';
    t.count <- t.count - 1
  end

(** [stab t k f] calls [f] on every entry whose interval contains [k]. *)
let stab t k f =
  let rec go = function
    | Leaf -> ()
    | Node n ->
      if String.compare (max_hi_of n.l) k > 0 then go n.l;
      if String.compare n.lo k <= 0 then begin
        List.iter (fun e -> if String.compare e.hi k > 0 then f e) n.entries;
        go n.r
      end
  in
  go t.root

(** [iter_overlapping t ~lo ~hi f] calls [f] on every entry whose interval
    intersects [\[lo, hi)]. *)
let iter_overlapping t ~lo ~hi f =
  if String.compare lo hi < 0 then begin
    let rec go = function
      | Leaf -> ()
      | Node n ->
        if String.compare (max_hi_of n.l) lo > 0 then go n.l;
        if String.compare n.lo hi < 0 then begin
          List.iter
            (fun e -> if String.compare e.hi lo > 0 && String.compare e.lo hi < 0 then f e)
            n.entries;
          go n.r
        end
    in
    go t.root
  end

(** [exact t ~lo ~hi] is every entry whose interval is exactly
    [\[lo, hi)], newest first: one descent to the bucket of [lo]. *)
let exact t ~lo ~hi =
  let rec go = function
    | Leaf -> []
    | Node n ->
      let c = String.compare lo n.lo in
      if c < 0 then go n.l
      else if c > 0 then go n.r
      else List.filter (fun e -> String.equal e.hi hi) n.entries
  in
  go t.root

let iter t f =
  let rec go = function
    | Leaf -> ()
    | Node n ->
      go n.l;
      List.iter f n.entries;
      go n.r
  in
  go t.root

let to_list t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

(** Structural validation for tests. *)
let validate t =
  let fail msg = failwith ("Interval_map.validate: " ^ msg) in
  let count = ref 0 in
  let rec go tree lo hi =
    match tree with
    | Leaf -> ()
    | Node n ->
      if abs (height n.l - height n.r) > 1 then fail "unbalanced";
      if n.height <> 1 + max (height n.l) (height n.r) then fail "height";
      if n.entries = [] then fail "empty bucket";
      List.iter
        (fun e ->
          incr count;
          if e.lo <> n.lo then fail "bucket lo";
          if String.compare e.lo e.hi >= 0 then fail "empty interval")
        n.entries;
      (match lo with
      | Some l -> if String.compare n.lo l <= 0 then fail "order lo"
      | None -> ());
      (match hi with
      | Some h -> if String.compare n.lo h >= 0 then fail "order hi"
      | None -> ());
      let expect =
        Strkey.max_str (entries_max_hi n.entries)
          (Strkey.max_str (max_hi_of n.l) (max_hi_of n.r))
      in
      if n.max_hi <> expect then fail "max_hi";
      go n.l lo (Some n.lo);
      go n.r (Some n.lo) hi
  in
  go t.root None None;
  if !count <> t.count then fail "count"
