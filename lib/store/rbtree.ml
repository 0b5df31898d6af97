(** Mutable red-black tree with parent pointers, specialized to string keys.

    This is the paper's §4 store structure. Three properties matter beyond
    ordinary balanced-tree behaviour:

    - {b node identity}: [remove] splices nodes without moving key/value
      between nodes (transplant-based deletion), so a pointer to a node —
      an {e output hint}, §4.2 — stays meaningful; removed nodes are marked
      dead rather than recycled.
    - {b hinted insertion}: [insert_after] links a key as the in-order
      successor of a hint node in O(1) amortized time when the hint is
      accurate, falling back to a normal insert when it is not.
    - {b ordered iteration} over half-open key ranges, the basis of [scan].
      The tree keeps its maximum node, so a range starting past every key
      (a timeline check from a later time) walks nothing.

    The implementation follows CLRS with a per-tree [nil] sentinel. *)

type 'v node = {
  mutable key : string;
  mutable value : 'v;
  mutable left : 'v node;
  mutable right : 'v node;
  mutable parent : 'v node;
  mutable red : bool;
  mutable live : bool; (* false once unlinked; guards stale hints *)
}

type 'v t = {
  nil : 'v node;
  mutable root : 'v node;
  mutable size : int;
  mutable max : 'v node; (* the last node in key order; [nil] when empty *)
}

let make_nil dummy =
  let rec nil =
    { key = ""; value = dummy; left = nil; right = nil; parent = nil; red = false; live = false }
  in
  nil

(** [create ~dummy ()] makes an empty tree. [dummy] is an arbitrary value of
    the value type used to seed the sentinel; it is never observable. *)
let create ~dummy () =
  let nil = make_nil dummy in
  { nil; root = nil; size = 0; max = nil }

let is_empty t = t.root == t.nil
let size t = t.size
let is_live node = node.live

let rec subtree_min t x = if x.left == t.nil then x else subtree_min t x.left
let rec subtree_max t x = if x.right == t.nil then x else subtree_max t x.right

let min_node t = if t.root == t.nil then None else Some (subtree_min t t.root)
let max_node t = if t.max == t.nil then None else Some t.max

(** In-order successor, or [None] at the maximum. *)
let next t x =
  if x.right != t.nil then Some (subtree_min t x.right)
  else
    let rec up x p = if p != t.nil && x == p.right then up p p.parent else p in
    let p = up x x.parent in
    if p == t.nil then None else Some p

let prev t x =
  if x.left != t.nil then Some (subtree_max t x.left)
  else
    let rec up x p = if p != t.nil && x == p.left then up p p.parent else p in
    let p = up x x.parent in
    if p == t.nil then None else Some p

let find t k =
  let rec go x =
    if x == t.nil then None
    else
      let c = String.compare k x.key in
      if c = 0 then Some x else if c < 0 then go x.left else go x.right
  in
  go t.root

(** First node with key >= [k], in O(log n); O(1) when [k] sorts past the
    maximum. *)
let lower_bound t k =
  let rec go x best =
    if x == t.nil then best
    else if String.compare x.key k >= 0 then go x.left (Some x)
    else go x.right best
  in
  if t.max == t.nil || String.compare k t.max.key > 0 then None else go t.root None

(* Descent for [floor]: [best] is the deepest node seen with key <= [k]
   ([nil] when none). Top-level so a lookup allocates no closure. *)
let rec floor_from nil k x best =
  if x == nil then best
  else if String.compare x.key k <= 0 then floor_from nil k x.right x
  else floor_from nil k x.left best

(** Last node with key <= the argument, in one O(log n) descent. *)
let floor t k =
  let n = floor_from t.nil k t.root t.nil in
  if n == t.nil then None else Some n

(** Give a live node a new key in place. The caller guarantees the key
    still sorts strictly between the node's neighbours. *)
let rekey node k = node.key <- k

let left_rotate t x =
  let y = x.right in
  x.right <- y.left;
  if y.left != t.nil then y.left.parent <- x;
  y.parent <- x.parent;
  if x.parent == t.nil then t.root <- y
  else if x == x.parent.left then x.parent.left <- y
  else x.parent.right <- y;
  y.left <- x;
  x.parent <- y

let right_rotate t x =
  let y = x.left in
  x.left <- y.right;
  if y.right != t.nil then y.right.parent <- x;
  y.parent <- x.parent;
  if x.parent == t.nil then t.root <- y
  else if x == x.parent.right then x.parent.right <- y
  else x.parent.left <- y;
  y.right <- x;
  x.parent <- y

let insert_fixup t z0 =
  let z = ref z0 in
  while !z.parent.red do
    let zp = !z.parent in
    let zpp = zp.parent in
    if zp == zpp.left then begin
      let y = zpp.right in
      if y.red then begin
        zp.red <- false;
        y.red <- false;
        zpp.red <- true;
        z := zpp
      end
      else begin
        if !z == zp.right then begin
          z := zp;
          left_rotate t !z
        end;
        !z.parent.red <- false;
        !z.parent.parent.red <- true;
        right_rotate t !z.parent.parent
      end
    end
    else begin
      let y = zpp.left in
      if y.red then begin
        zp.red <- false;
        y.red <- false;
        zpp.red <- true;
        z := zpp
      end
      else begin
        if !z == zp.left then begin
          z := zp;
          right_rotate t !z
        end;
        !z.parent.red <- false;
        !z.parent.parent.red <- true;
        left_rotate t !z.parent.parent
      end
    end
  done;
  t.root.red <- false

(* Link fresh node [z] as the [`Left] or [`Right] child of [parent] (which
   must have a nil child there, or be nil for an empty tree). *)
let link_child t parent side k v =
  let z =
    { key = k; value = v; left = t.nil; right = t.nil; parent; red = true; live = true }
  in
  if parent == t.nil then begin
    t.root <- z;
    t.max <- z
  end
  else begin
    match side with
    | `Left -> parent.left <- z
    | `Right ->
      parent.right <- z;
      (* the max has no right child, so a node linked there is the new max *)
      if parent == t.max then t.max <- z
  end;
  t.size <- t.size + 1;
  insert_fixup t z;
  z

(** Insert [k -> v]; if [k] is present, overwrite its value in place.
    Returns the node and the previous value ([None] when freshly
    inserted). *)
let insert t k v =
  let rec descend x =
    let c = String.compare k x.key in
    if c = 0 then begin
      let old = x.value in
      x.value <- v;
      (x, Some old)
    end
    else if c < 0 then
      if x.left == t.nil then (link_child t x `Left k v, None) else descend x.left
    else if x.right == t.nil then (link_child t x `Right k v, None)
    else descend x.right
  in
  if t.root == t.nil then (link_child t t.nil `Left k v, None) else descend t.root

(** [insert_after t ~hint k v]: O(1) amortized insertion when [k] belongs
    immediately after [hint] in key order (the paper's output-hint fast
    path). Falls back to [insert] whenever the hint is dead, equal, or not
    actually adjacent. *)
let insert_after t ~hint k v =
  (* k fits strictly between hint and its successor: link it there *)
  let attach () =
    if hint.right == t.nil then (link_child t hint `Right k v, None)
    else
      (* the successor is the leftmost node of hint.right and has no left
         child; the new node becomes that left child *)
      let s = subtree_min t hint.right in
      (link_child t s `Left k v, None)
  in
  if (not hint.live) || String.compare hint.key k >= 0 then insert t k v
  else
    match next t hint with
    | None -> attach ()
    | Some succ ->
      let c = String.compare k succ.key in
      if c > 0 then insert t k v (* hint not adjacent to k *)
      else if c = 0 then begin
        let old = succ.value in
        succ.value <- v;
        (succ, Some old)
      end
      else attach ()

let transplant t u v =
  if u.parent == t.nil then t.root <- v
  else if u == u.parent.left then u.parent.left <- v
  else u.parent.right <- v;
  v.parent <- u.parent

let delete_fixup t x0 =
  let x = ref x0 in
  while !x != t.root && not !x.red do
    if !x == !x.parent.left then begin
      let w = ref !x.parent.right in
      if !w.red then begin
        !w.red <- false;
        !x.parent.red <- true;
        left_rotate t !x.parent;
        w := !x.parent.right
      end;
      if (not !w.left.red) && not !w.right.red then begin
        !w.red <- true;
        x := !x.parent
      end
      else begin
        if not !w.right.red then begin
          !w.left.red <- false;
          !w.red <- true;
          right_rotate t !w;
          w := !x.parent.right
        end;
        !w.red <- !x.parent.red;
        !x.parent.red <- false;
        !w.right.red <- false;
        left_rotate t !x.parent;
        x := t.root
      end
    end
    else begin
      let w = ref !x.parent.left in
      if !w.red then begin
        !w.red <- false;
        !x.parent.red <- true;
        right_rotate t !x.parent;
        w := !x.parent.left
      end;
      if (not !w.right.red) && not !w.left.red then begin
        !w.red <- true;
        x := !x.parent
      end
      else begin
        if not !w.left.red then begin
          !w.right.red <- false;
          !w.red <- true;
          left_rotate t !w;
          w := !x.parent.left
        end;
        !w.red <- !x.parent.red;
        !x.parent.red <- false;
        !w.left.red <- false;
        right_rotate t !x.parent;
        x := t.root
      end
    end
  done;
  !x.red <- false

(** Unlink [z] from the tree. [z] keeps its key/value but becomes dead;
    other nodes keep their identity (hints to them stay valid). *)
let remove_node t z =
  if not z.live then invalid_arg "Rbtree.remove_node: dead node";
  if z == t.max then t.max <- (match prev t z with Some p -> p | None -> t.nil);
  let y_original_red = ref z.red in
  let x =
    if z.left == t.nil then begin
      let x = z.right in
      transplant t z x;
      x
    end
    else if z.right == t.nil then begin
      let x = z.left in
      transplant t z x;
      x
    end
    else begin
      let y = subtree_min t z.right in
      y_original_red := y.red;
      let x = y.right in
      if y.parent == z then x.parent <- y
      else begin
        transplant t y x;
        y.right <- z.right;
        y.right.parent <- y
      end;
      transplant t z y;
      y.left <- z.left;
      y.left.parent <- y;
      y.red <- z.red;
      x
    end
  in
  if not !y_original_red then delete_fixup t x;
  (* scrub the sentinel's parent, which delete_fixup may have read *)
  t.nil.parent <- t.nil;
  t.nil.red <- false;
  z.live <- false;
  z.left <- t.nil;
  z.right <- t.nil;
  z.parent <- t.nil;
  t.size <- t.size - 1

let remove t k =
  match find t k with
  | Some node ->
    remove_node t node;
    true
  | None -> false

(** Iterate nodes with [lo <= key < hi] in ascending order. The callback
    must not mutate the tree. *)
let iter_range t ~lo ~hi f =
  let rec go = function
    | None -> ()
    | Some node ->
      if String.compare node.key hi < 0 then begin
        f node;
        go (next t node)
      end
  in
  go (lower_bound t lo)

let fold_range t ~lo ~hi ~init f =
  let acc = ref init in
  iter_range t ~lo ~hi (fun node -> acc := f !acc node);
  !acc

(** Collect nodes in range; safe to mutate the tree afterwards. *)
let nodes_in_range t ~lo ~hi =
  List.rev (fold_range t ~lo ~hi ~init:[] (fun acc n -> n :: acc))

let iter t f =
  match min_node t with
  | None -> ()
  | Some first ->
    let rec go node =
      f node;
      match next t node with None -> () | Some n -> go n
    in
    go first

let to_list t = List.rev (fold_range t ~lo:"" ~hi:"\xff" ~init:[] (fun acc n -> (n.key, n.value) :: acc))

(** Count of keys in [lo, hi) — O(range size). *)
let count_range t ~lo ~hi = fold_range t ~lo ~hi ~init:0 (fun acc _ -> acc + 1)

(** Structural validation for tests: BST order, red-black invariants,
    parent pointers, size. Raises [Failure] with a description on
    violation. *)
let validate t =
  let fail msg = failwith ("Rbtree.validate: " ^ msg) in
  if t.root.red then fail "red root";
  if t.root != t.nil && t.root.parent != t.nil then fail "root parent";
  let count = ref 0 in
  let rec go node lo hi =
    if node == t.nil then 1
    else begin
      incr count;
      if not node.live then fail "dead node in tree";
      (match lo with Some l -> if String.compare node.key l <= 0 then fail "order lo" | None -> ());
      (match hi with Some h -> if String.compare node.key h >= 0 then fail "order hi" | None -> ());
      if node.red && (node.left.red || node.right.red) then fail "red child of red";
      if node.left != t.nil && node.left.parent != node then fail "left parent";
      if node.right != t.nil && node.right.parent != node then fail "right parent";
      let bl = go node.left lo (Some node.key) in
      let br = go node.right (Some node.key) hi in
      if bl <> br then fail "black height";
      bl + if node.red then 0 else 1
    end
  in
  ignore (go t.root None None);
  if !count <> t.size then fail "size mismatch";
  let actual = if t.root == t.nil then t.nil else subtree_max t t.root in
  if actual != t.max then fail "kept max is not the last node"
