(* The home's subscriptions (§2.4) and the pushes they owe; see subs.mli. *)

module Server = Pequod_core.Server
module Message = Pequod_proto.Message
module Interval_map = Pequod_store.Interval_map

let src = Logs.Src.create "pequod.subs"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  engine : Server.t;
  (* source table -> subscriber callback address per fetched range *)
  subs : (string, string Interval_map.t) Hashtbl.t;
  (* pushes owed, coalesced per destination until the next flush *)
  pending : (string, (string * string option) list) Hashtbl.t; (* dst -> rev items *)
  mutable order : string list; (* destinations, reverse first-enqueue order *)
  m_fetch_in : Obs.Counter.t; (* peer.fetch.in *)
  m_notify_out : Obs.Counter.t; (* peer.notify.out *)
}

let create engine =
  let obs = Server.obs engine in
  { engine; subs = Hashtbl.create 8; pending = Hashtbl.create 8; order = [];
    m_fetch_in = Obs.counter obs "peer.fetch.in";
    m_notify_out = Obs.counter obs "peer.notify.out" }

let held_by subscriber h = String.equal (Interval_map.handle_data h) subscriber

(* [f h] for each subscription whose range contains [key] *)
let stab t key f =
  Option.iter
    (fun im -> Interval_map.stab im key f)
    (Hashtbl.find_opt t.subs (Pequod_store.Store.table_name_of key))

let grant t ~refused ~table ~lo ~hi ~subscriber =
  Obs.Counter.incr t.m_fetch_in;
  match refused with
  | Some why -> Message.Error why
  | None -> (
    let im =
      match Hashtbl.find_opt t.subs table with
      | Some im -> im
      | None ->
        let im = Interval_map.create () in
        Hashtbl.add t.subs table im;
        im
    in
    (* a refetch of the same range by the same subscriber (eviction
       pressure, subscription healing) reuses the live entry, so a
       long-lived subscriber cannot grow the table without bound *)
    let handle =
      if subscriber = "" || List.exists (held_by subscriber) (Interval_map.exact im ~lo ~hi)
      then None
      else Some (Interval_map.add im ~lo ~hi subscriber)
    in
    let rescind why =
      Option.iter (Interval_map.remove im) handle;
      Message.Error why
    in
    match Server.scan_result t.engine ~lo ~hi with
    | `Ok pairs ->
      (* the stamp this snapshot is current through: the subscriber
         records it, and session reads demand at least it *)
      Message.Subscribed { stamp = Server.range_stamp t.engine ~table ~lo ~hi; pairs }
    | `Missing _ -> rescind (Printf.sprintf "not the home for %s[%s,%s)" table lo hi)
    | exception e -> rescind (Printexc.to_string e))

let enqueue t key value =
  if Hashtbl.length t.subs > 0 then begin
    let targets = ref [] in
    stab t key (fun h -> targets := Interval_map.handle_data h :: !targets);
    List.iter
      (fun dst ->
        let prev =
          match Hashtbl.find_opt t.pending dst with
          | Some items -> items
          | None ->
            t.order <- dst :: t.order;
            []
        in
        Hashtbl.replace t.pending dst ((key, value) :: prev))
      (List.sort_uniq compare !targets)
  end

let flush t =
  let order = List.rev t.order in
  t.order <- [];
  List.filter_map
    (fun dst ->
      match Hashtbl.find_opt t.pending dst with
      | None | Some [] -> None
      | Some rev_items ->
        Hashtbl.remove t.pending dst;
        let items = List.rev rev_items in
        (* pushes leave in write order per connection, so the floor over
           a range at flush time is a sound promise *)
        let ranges = Hashtbl.create 4 in
        List.iter
          (fun (key, _) ->
            stab t key (fun h ->
                if held_by dst h then
                  let lo, hi = Interval_map.handle_range h in
                  Hashtbl.replace ranges (Pequod_store.Store.table_name_of key, lo, hi) ()))
          items;
        let stamps =
          Hashtbl.fold
            (fun (table, lo, hi) () acc ->
              match Server.range_stamp t.engine ~table ~lo ~hi with
              | 0 -> acc
              | s -> (table, lo, hi, s) :: acc)
            ranges []
        in
        Obs.Counter.incr t.m_notify_out;
        Some (dst, Message.Notify_batch { items; stamps }))
    order

let ranges_of t subscriber =
  let ranges = ref [] in
  Hashtbl.iter
    (fun table im ->
      Interval_map.iter im (fun h ->
          if held_by subscriber h then begin
            let lo, hi = Interval_map.handle_range h in
            ranges := (table, lo, hi) :: !ranges
          end))
    t.subs;
  List.sort compare !ranges

let drop t subscriber =
  let ranges = ranges_of t subscriber in
  if ranges <> [] then
    Log.warn (fun m -> m "dropping subscriber %s: pushes to it were lost" subscriber);
  List.iter
    (fun (table, lo, hi) ->
      let im = Hashtbl.find t.subs table in
      List.iter (Interval_map.remove im)
        (List.filter (held_by subscriber) (Interval_map.exact im ~lo ~hi)))
    ranges

let hand_off t ~table ~lo ~hi ~dest =
  match Hashtbl.find_opt t.subs table with
  | None -> []
  | Some im ->
    let handles = ref [] in
    Interval_map.iter_overlapping im ~lo ~hi (fun h -> handles := h :: !handles);
    List.filter_map
      (fun h ->
        let ((slo, shi) as range) = Interval_map.handle_range h in
        let subscriber = Interval_map.handle_data h in
        if String.compare lo slo <= 0 && String.compare shi hi <= 0 then
          Interval_map.remove im h;
        match Directory.intersect ~lo ~hi range with
        | Some (lo, hi) when not (String.equal subscriber dest) ->
          Some (Message.Fetch { table; lo; hi; subscriber })
        | _ -> None)
      !handles
