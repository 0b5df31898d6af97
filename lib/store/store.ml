(** The multi-table store facade (Fig 6's top layer).

    The first ['|']-separated component of every key names its table
    ([p|bob|100] lives in table [p]). Tables are created on demand, as
    single trees until a boundary is declared for them ({!add_boundary});
    the whole store is still one ordered key space: cross-table scans walk the
    tables in name order. *)

module Smap = Map.Make (String)

type ('v, 'n) t = {
  by_name : (string, ('v, 'n) Table.t) Hashtbl.t;
  mutable ordered : ('v, 'n) Table.t Smap.t;
  dummy : 'v;
}

let create ~dummy () = { by_name = Hashtbl.create 16; ordered = Smap.empty; dummy }

(** Table name of a key: everything before the first ['|'] (or the whole
    key if it has no separator). *)
let table_name_of key =
  match String.index_opt key '|' with
  | Some i -> String.sub key 0 i
  | None -> key

let table t name =
  match Hashtbl.find_opt t.by_name name with
  | Some tbl -> tbl
  | None ->
    let tbl = Table.create ~name ~dummy:t.dummy () in
    Hashtbl.add t.by_name name tbl;
    t.ordered <- Smap.add name tbl t.ordered;
    tbl

let table_of_key t key = table t (table_name_of key)

let find_table t name = Hashtbl.find_opt t.by_name name

(** Subdivide table [name] into subtables of [depth] components (§4.1).
    Asked for several depths, a table keeps the shallowest; a table that
    already holds pairs is re-laid out. *)
let add_boundary t name depth =
  let tbl = table t name in
  let depth = match Table.subtable_depth tbl with Some d -> min d depth | None -> depth in
  Table.set_subtable_depth tbl depth

let get t key =
  Strkey.validate key;
  Table.get (table_of_key t key) key

let put ?hint t key value =
  Strkey.validate key;
  Table.put ?hint (table_of_key t key) key value

let remove t key = Table.remove (table_of_key t key) key

(** Ordered iteration over [\[lo, hi)] across all tables. *)
let iter_range t ~lo ~hi f =
  if String.compare lo hi < 0 then begin
    let nlo = table_name_of lo in
    if String.equal nlo (table_name_of hi) then begin
      (* fast path: the range stays within one table *)
      match Hashtbl.find_opt t.by_name nlo with
      | Some tbl -> Table.iter_range tbl ~lo ~hi f
      | None -> ()
    end
    else
      Seq.iter
        (fun (name, tbl) ->
          if String.compare name hi < 0 then Table.iter_range tbl ~lo ~hi f)
        (Seq.take_while
           (fun (name, _) -> String.compare name hi < 0)
           (Smap.to_seq_from nlo t.ordered))
  end

let fold_range t ~lo ~hi ~init f =
  let acc = ref init in
  iter_range t ~lo ~hi (fun k v -> acc := f !acc k v);
  !acc

exception Stopped

(* Early-terminating fold across tables; see Table.fold_range_stop. *)
let fold_range_stop t ~lo ~hi ~init f =
  let acc = ref init in
  (try
     iter_range t ~lo ~hi (fun k v ->
         match f !acc k v with
         | `Continue a -> acc := a
         | `Stop a ->
           acc := a;
           raise_notrace Stopped)
   with Stopped -> ());
  !acc

let range_to_list t ~lo ~hi =
  List.rev (fold_range t ~lo ~hi ~init:[] (fun acc k v -> (k, v) :: acc))

let count_range t ~lo ~hi = fold_range t ~lo ~hi ~init:0 (fun acc _ _ -> acc + 1)

let size t = Hashtbl.fold (fun _ tbl acc -> acc + Table.size tbl) t.by_name 0

let memory_bytes t = Hashtbl.fold (fun _ tbl acc -> acc + Table.memory_bytes tbl) t.by_name 0

let tables t = Smap.bindings t.ordered |> List.map snd

(** Summed operation statistics across tables. *)
let total_ops t =
  Hashtbl.fold (fun _ tbl acc -> acc + Table.total_ops (Table.stats tbl)) t.by_name 0

(** Aggregate of every table's operation statistics (a fresh record; the
    per-table records keep accumulating independently). *)
let stats_totals t =
  let acc = { Table.lookups = 0; inserts = 0; removes = 0; steps = 0 } in
  Hashtbl.iter
    (fun _ tbl ->
      let s = Table.stats tbl in
      acc.Table.lookups <- acc.Table.lookups + s.Table.lookups;
      acc.Table.inserts <- acc.Table.inserts + s.Table.inserts;
      acc.Table.removes <- acc.Table.removes + s.Table.removes;
      acc.Table.steps <- acc.Table.steps + s.Table.steps)
    t.by_name;
  acc

let validate t = Hashtbl.iter (fun _ tbl -> Table.validate tbl) t.by_name
