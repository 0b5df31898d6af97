(** RPC messages between Pequod clients and servers, and between servers
    (the §2.4 subscription protocol).

    [loopback] drives a handler through a full encode/decode round trip;
    the evaluation harness routes every system's operations through it so
    per-RPC CPU cost is real work rather than a modeled constant. *)

(** Wire protocol version, negotiated by the [Hello] handshake.

    v1 (unversioned): no handshake; [Stats] request (tag [0x09]) and
    [Stat_list] response (tag [0x85]) carried a flattened integer
    snapshot; [Fetch.subscriber] was a numeric simulator node id.

    v2: [Hello]/[Welcome] handshake carries the version; [Fetch] replies
    [Subscribed] and names the subscriber by an opaque callback address
    (["host:port"] on TCP, a stringified core index on the in-memory hub);
    [Sub_check]/[Sub_ranges] let a subscriber audit (and heal) its
    subscriptions against the home; tags [0x09]/[0x85] are retired —
    still reserved, but decoding them fails loudly with a versioned
    error instead of misparsing.

    v3 (session consistency, docs/SESSIONS.md): write acks answer
    [Stamps] (a per-range version-stamp vector) instead of [Done];
    [Get_at]/[Scan_at] carry a minimum-stamp demand and may be refused
    with [Stale]; [Subscribed] gains the fed range's stamp and
    [Notify_batch] a stamp trailer, so fetched copies know their
    version. Later, still v3: the single-key push tags [0x07] (put)
    and [0x08] (remove) are retired like [0x09] — every push is a
    [Notify_batch], and no v3 sender ever emitted them, so the version
    did not change. *)
let protocol_version = 3

(** One row of the partition directory: [table] keys in [[lo,hi)] live
    on home server [de_home]; [de_replicas] are read replicas that also
    fetch+subscribe the range and may serve reads (writes always go to
    the home). Addresses are ["host:port"]. *)
type dir_entry = {
  de_table : string;
  de_lo : string;
  de_hi : string;
  de_home : string;
  de_replicas : string list;
}

(** One entry of a version-stamp vector: the authoritative copy of
    [table] keys in [[lo,hi)] was at version [stamp]. Write acks clamp
    entries to the written keys; a client demands the vector back on
    reads to get read-your-writes (docs/SESSIONS.md). *)
type stamp_entry = string * string * string * int

type request =
  | Hello of { version : int } (* first request on a connection *)
  | Get of string
  | Put of string * string
  | Remove of string
  | Put_batch of (string * string) list (* one framed batch, argument order *)
  | Scan of { lo : string; hi : string }
  | Add_join of string
  (* server-to-server *)
  | Fetch of { table : string; lo : string; hi : string; subscriber : string }
      (* [subscriber] is the callback address the home server pushes
         notifications to after granting the subscription *)
  | Notify_batch of {
      items : (string * string option) list;
          (* subscription traffic coalesced per flush: [Some v] is a
             put, [None] a remove, in source-write order *)
      stamps : stamp_entry list;
          (* trailer: after applying [items], the receiver's subscribed
             copies of these ranges are current at these versions *)
    }
  | Sub_check of { subscriber : string }
      (* subscription heartbeat: which ranges does this home still push
         to [subscriber]? A compute server compares the answer against
         what it believes subscribed and refetches anything the home
         dropped (e.g. after a failed push or a home restart). *)
  | Stats_full
  (* partition directory (served by the seed node) *)
  | Dir_get (* answer [Dir_state] unconditionally *)
  | Dir_watch of { epoch : int }
      (* conditional get: [Dir_state] if the directory is newer than
         [epoch], else [Done] — a cheap poll for followers *)
  | Dir_update of { epoch : int; entries : dir_entry list }
      (* replace the directory iff [epoch] is strictly newer; the seed
         answers [Done] or [Error] on a stale/invalid proposal *)
  | Migrate of { table : string; lo : string; hi : string; dest : string }
      (* operator verb, sent to the range's current home: snapshot-feed
         [[lo,hi)] to [dest] via Put_batch, replay the write delta
         accumulated during the copy, then flip the directory epoch.
         Answered (with per-phase stats as [Pairs]) only once the
         handoff is complete. *)
  | Get_at of { key : string; min : stamp_entry list }
      (* [Get] demanding freshness: answer only from a copy whose
         recorded stamps cover [min]; park/refetch otherwise, [Stale]
         past the deadline *)
  | Scan_at of { lo : string; hi : string; min : stamp_entry list }
      (* [Scan] with a minimum-stamp demand, same contract as [Get_at] *)

type response =
  | Done
  | Value of string option
  | Pairs of (string * string) list
  | Metrics of (string * Obs.value) list
  | Welcome of { version : int } (* handshake accepted *)
  | Subscribed of { stamp : int; pairs : (string * string) list }
      (* Fetch granted: the range snapshot (current at version [stamp];
         0 when never stamped), with a subscription installed *)
  | Stamps of stamp_entry list
      (* write acknowledged: the acked keys' ranges are now at these
         versions — the session's read demand going forward *)
  | Stale of stamp_entry list
      (* a [Get_at]/[Scan_at] demand this server could not meet before
         its deadline: the still-unsatisfied entries *)
  | Sub_ranges of (string * string * string) list
      (* Sub_check answer: (table, lo, hi) ranges live for the asking
         subscriber, sorted *)
  | Dir_state of { epoch : int; entries : dir_entry list }
      (* the directory as of [epoch] (Dir_get/Dir_watch answer) *)
  | Error of string

(** Short name of every request kind, for per-kind RPC counters
    ([rpc.get], [rpc.scan], ...), indexed by {!request_kind_index}. *)
let request_kinds =
  [| "hello"; "get"; "put"; "remove"; "put_batch"; "scan"; "add_join"; "fetch";
     "notify_batch"; "sub_check"; "stats_full"; "dir_get"; "dir_watch"; "dir_update";
     "migrate"; "get_at"; "scan_at" |]

let request_kind_index = function
  | Hello _ -> 0
  | Get _ -> 1
  | Put _ -> 2
  | Remove _ -> 3
  | Put_batch _ -> 4
  | Scan _ -> 5
  | Add_join _ -> 6
  | Fetch _ -> 7
  | Notify_batch _ -> 8
  | Sub_check _ -> 9
  | Stats_full -> 10
  | Dir_get -> 11
  | Dir_watch _ -> 12
  | Dir_update _ -> 13
  | Migrate _ -> 14
  | Get_at _ -> 15
  | Scan_at _ -> 16

(** One-way requests are applied without sending a response frame.
    Subscription pushes must be one-way: a home server that waited for
    an acknowledgement could deadlock against a compute server blocked
    in a synchronous [Fetch] back to it. *)
let is_oneway = function
  | Notify_batch _ -> true
  | Hello _ | Get _ | Put _ | Remove _ | Put_batch _ | Scan _ | Add_join _
  | Fetch _ | Sub_check _ | Stats_full | Dir_get | Dir_watch _ | Dir_update _
  | Migrate _ | Get_at _ | Scan_at _ ->
    false

exception Protocol_error = Codec.Decode_error

(* A reserved tag: decoding it fails loudly, naming what replaced it. *)
let retired tag what ~use =
  raise
    (Protocol_error
       (Printf.sprintf "tag %#x (%s) is retired in protocol v%d; use %s" tag what
          protocol_version use))

let put_dir_entries buf entries =
  Codec.put_varint buf (List.length entries);
  List.iter
    (fun e ->
      Codec.put_string buf e.de_table;
      Codec.put_string buf e.de_lo;
      Codec.put_string buf e.de_hi;
      Codec.put_string buf e.de_home;
      Codec.put_varint buf (List.length e.de_replicas);
      List.iter (Codec.put_string buf) e.de_replicas)
    entries

let get_dir_entries r =
  let n = Codec.get_varint r in
  List.init n (fun _ ->
      let de_table = Codec.get_string r in
      let de_lo = Codec.get_string r in
      let de_hi = Codec.get_string r in
      let de_home = Codec.get_string r in
      let nr = Codec.get_varint r in
      let de_replicas = List.init nr (fun _ -> Codec.get_string r) in
      { de_table; de_lo; de_hi; de_home; de_replicas })

let put_stamps buf stamps =
  Codec.put_varint buf (List.length stamps);
  List.iter
    (fun (table, lo, hi, stamp) ->
      Codec.put_string buf table;
      Codec.put_string buf lo;
      Codec.put_string buf hi;
      Codec.put_varint buf stamp)
    stamps

let get_stamps r =
  let n = Codec.get_varint r in
  List.init n (fun _ ->
      let table = Codec.get_string r in
      let lo = Codec.get_string r in
      let hi = Codec.get_string r in
      let stamp = Codec.get_varint r in
      (table, lo, hi, stamp))

let encode_request req =
  let buf = Buffer.create 64 in
  (match req with
  | Get k ->
    Buffer.add_char buf '\x01';
    Codec.put_string buf k
  | Put (k, v) ->
    Buffer.add_char buf '\x02';
    Codec.put_string buf k;
    Codec.put_string buf v
  | Remove k ->
    Buffer.add_char buf '\x03';
    Codec.put_string buf k
  | Scan { lo; hi } ->
    Buffer.add_char buf '\x04';
    Codec.put_string buf lo;
    Codec.put_string buf hi
  | Add_join text ->
    Buffer.add_char buf '\x05';
    Codec.put_string buf text
  | Fetch { table; lo; hi; subscriber } ->
    Buffer.add_char buf '\x06';
    Codec.put_string buf table;
    Codec.put_string buf lo;
    Codec.put_string buf hi;
    Codec.put_string buf subscriber
  | Stats_full -> Buffer.add_char buf '\x0a'
  | Put_batch pairs ->
    Buffer.add_char buf '\x0b';
    Codec.put_pair_list buf pairs
  | Notify_batch { items; stamps } ->
    Buffer.add_char buf '\x0c';
    Codec.put_varint buf (List.length items);
    List.iter
      (fun (k, v) ->
        Codec.put_string buf k;
        match v with
        | Some v ->
          Buffer.add_char buf '\x01';
          Codec.put_string buf v
        | None -> Buffer.add_char buf '\x00')
      items;
    put_stamps buf stamps
  | Hello { version } ->
    Buffer.add_char buf '\x0d';
    Codec.put_varint buf version
  | Sub_check { subscriber } ->
    Buffer.add_char buf '\x0e';
    Codec.put_string buf subscriber
  | Dir_get -> Buffer.add_char buf '\x0f'
  | Dir_watch { epoch } ->
    Buffer.add_char buf '\x10';
    Codec.put_varint buf epoch
  | Dir_update { epoch; entries } ->
    Buffer.add_char buf '\x11';
    Codec.put_varint buf epoch;
    put_dir_entries buf entries
  | Migrate { table; lo; hi; dest } ->
    Buffer.add_char buf '\x12';
    Codec.put_string buf table;
    Codec.put_string buf lo;
    Codec.put_string buf hi;
    Codec.put_string buf dest
  | Get_at { key; min } ->
    Buffer.add_char buf '\x13';
    Codec.put_string buf key;
    put_stamps buf min
  | Scan_at { lo; hi; min } ->
    Buffer.add_char buf '\x14';
    Codec.put_string buf lo;
    Codec.put_string buf hi;
    put_stamps buf min);
  Buffer.contents buf

let decode_request_r r =
  let req =
    match Codec.get_byte r with
    | 0x01 -> Get (Codec.get_string r)
    | 0x02 ->
      let k = Codec.get_string r in
      let v = Codec.get_string r in
      Put (k, v)
    | 0x03 -> Remove (Codec.get_string r)
    | 0x04 ->
      let lo = Codec.get_string r in
      let hi = Codec.get_string r in
      Scan { lo; hi }
    | 0x05 -> Add_join (Codec.get_string r)
    | 0x06 ->
      let table = Codec.get_string r in
      let lo = Codec.get_string r in
      let hi = Codec.get_string r in
      let subscriber = Codec.get_string r in
      Fetch { table; lo; hi; subscriber }
    | 0x07 -> retired 0x07 "notify_put" ~use:"notify_batch"
    | 0x08 -> retired 0x08 "notify_remove" ~use:"notify_batch"
    | 0x09 -> retired 0x09 "stats" ~use:"stats_full"
    | 0x0a -> Stats_full
    | 0x0b -> Put_batch (Codec.get_pair_list r)
    | 0x0c ->
      let n = Codec.get_varint r in
      let items =
        List.init n (fun _ ->
            let k = Codec.get_string r in
            match Codec.get_byte r with
            | 0x01 -> (k, Some (Codec.get_string r))
            | 0x00 -> (k, None)
            | b -> raise (Codec.Decode_error (Printf.sprintf "bad notify item %#x" b)))
      in
      let stamps = get_stamps r in
      Notify_batch { items; stamps }
    | 0x0d -> Hello { version = Codec.get_varint r }
    | 0x0e -> Sub_check { subscriber = Codec.get_string r }
    | 0x0f -> Dir_get
    | 0x10 -> Dir_watch { epoch = Codec.get_varint r }
    | 0x11 ->
      let epoch = Codec.get_varint r in
      let entries = get_dir_entries r in
      Dir_update { epoch; entries }
    | 0x12 ->
      let table = Codec.get_string r in
      let lo = Codec.get_string r in
      let hi = Codec.get_string r in
      let dest = Codec.get_string r in
      Migrate { table; lo; hi; dest }
    | 0x13 ->
      let key = Codec.get_string r in
      let min = get_stamps r in
      Get_at { key; min }
    | 0x14 ->
      let lo = Codec.get_string r in
      let hi = Codec.get_string r in
      let min = get_stamps r in
      Scan_at { lo; hi; min }
    | tag -> raise (Codec.Decode_error (Printf.sprintf "bad request tag %#x" tag))
  in
  if not (Codec.at_end r) then raise (Codec.Decode_error "trailing bytes");
  req

let decode_request data = decode_request_r (Codec.reader data)

(** Decode a request straight out of a framing-layer receive buffer
    ([Frame.feed_bytes] view) with no per-frame copy. The decoded value
    shares nothing with [buf] (keys and values are extracted as fresh
    strings), so it stays valid after the buffer is reused. *)
let decode_request_view buf ~off ~len =
  decode_request_r (Codec.reader_view (Bytes.unsafe_to_string buf) ~pos:off ~len)

let encode_response resp =
  let buf = Buffer.create 64 in
  (match resp with
  | Done -> Buffer.add_char buf '\x81'
  | Value None -> Buffer.add_char buf '\x82'
  | Value (Some v) ->
    Buffer.add_char buf '\x83';
    Codec.put_string buf v
  | Pairs pairs ->
    Buffer.add_char buf '\x84';
    Codec.put_pair_list buf pairs
  | Welcome { version } ->
    Buffer.add_char buf '\x88';
    Codec.put_varint buf version
  | Subscribed { stamp; pairs } ->
    Buffer.add_char buf '\x89';
    Codec.put_varint buf stamp;
    Codec.put_pair_list buf pairs
  | Stamps stamps ->
    Buffer.add_char buf '\x8c';
    put_stamps buf stamps
  | Stale stamps ->
    Buffer.add_char buf '\x8d';
    put_stamps buf stamps
  | Metrics metrics ->
    Buffer.add_char buf '\x87';
    Codec.put_varint buf (List.length metrics);
    List.iter
      (fun (name, v) ->
        Codec.put_string buf name;
        match v with
        | Obs.Counter n ->
          Buffer.add_char buf '\x00';
          Codec.put_varint buf n
        | Obs.Gauge n ->
          Buffer.add_char buf '\x01';
          Codec.put_varint buf n
        | Obs.Histogram h ->
          Buffer.add_char buf '\x02';
          Codec.put_varint buf h.Obs.Histogram.count;
          Codec.put_varint buf h.Obs.Histogram.sum;
          Codec.put_varint buf h.Obs.Histogram.min;
          Codec.put_varint buf h.Obs.Histogram.max;
          Codec.put_varint buf h.Obs.Histogram.p50;
          Codec.put_varint buf h.Obs.Histogram.p95;
          Codec.put_varint buf h.Obs.Histogram.p99)
      metrics
  | Sub_ranges ranges ->
    Buffer.add_char buf '\x8a';
    Codec.put_varint buf (List.length ranges);
    List.iter
      (fun (table, lo, hi) ->
        Codec.put_string buf table;
        Codec.put_string buf lo;
        Codec.put_string buf hi)
      ranges
  | Dir_state { epoch; entries } ->
    Buffer.add_char buf '\x8b';
    Codec.put_varint buf epoch;
    put_dir_entries buf entries
  | Error msg ->
    Buffer.add_char buf '\x86';
    Codec.put_string buf msg);
  Buffer.contents buf

let decode_response data =
  let r = Codec.reader data in
  let resp =
    match Codec.get_byte r with
    | 0x81 -> Done
    | 0x82 -> Value None
    | 0x83 -> Value (Some (Codec.get_string r))
    | 0x84 -> Pairs (Codec.get_pair_list r)
    | 0x85 -> retired 0x85 "stat_list" ~use:"metrics"
    | 0x86 -> Error (Codec.get_string r)
    | 0x87 ->
      let n = Codec.get_varint r in
      Metrics
        (List.init n (fun _ ->
             let name = Codec.get_string r in
             let v =
               match Codec.get_byte r with
               | 0x00 -> Obs.Counter (Codec.get_varint r)
               | 0x01 -> Obs.Gauge (Codec.get_varint r)
               | 0x02 ->
                 let count = Codec.get_varint r in
                 let sum = Codec.get_varint r in
                 let min = Codec.get_varint r in
                 let max = Codec.get_varint r in
                 let p50 = Codec.get_varint r in
                 let p95 = Codec.get_varint r in
                 let p99 = Codec.get_varint r in
                 Obs.Histogram { Obs.Histogram.count; sum; min; max; p50; p95; p99 }
               | tag ->
                 raise (Codec.Decode_error (Printf.sprintf "bad metric kind %#x" tag))
             in
             (name, v)))
    | 0x88 -> Welcome { version = Codec.get_varint r }
    | 0x89 ->
      let stamp = Codec.get_varint r in
      let pairs = Codec.get_pair_list r in
      Subscribed { stamp; pairs }
    | 0x8c -> Stamps (get_stamps r)
    | 0x8d -> Stale (get_stamps r)
    | 0x8a ->
      let n = Codec.get_varint r in
      Sub_ranges
        (List.init n (fun _ ->
             let table = Codec.get_string r in
             let lo = Codec.get_string r in
             let hi = Codec.get_string r in
             (table, lo, hi)))
    | 0x8b ->
      let epoch = Codec.get_varint r in
      let entries = get_dir_entries r in
      Dir_state { epoch; entries }
    | tag -> raise (Codec.Decode_error (Printf.sprintf "bad response tag %#x" tag))
  in
  if not (Codec.at_end r) then raise (Codec.Decode_error "trailing bytes");
  resp

(** Drive [handler] through a full wire round trip (encode request, decode
    at the "server", encode response, decode at the "client"), returning
    the response and the bytes moved in each direction. *)
let loopback handler req =
  let wire_req = encode_request req in
  let resp = handler (decode_request wire_req) in
  let wire_resp = encode_response resp in
  (decode_response wire_resp, String.length wire_req, String.length wire_resp)

(** Apply a request to a Pequod engine (shared by the loopback harness and
    the TCP server). *)
let rec apply_to_server server req =
  let module Server = Pequod_core.Server in
  match req with
  | Hello { version } ->
    if version = protocol_version then Welcome { version = protocol_version }
    else
      Error
        (Printf.sprintf "protocol version mismatch: server speaks v%d, client sent v%d"
           protocol_version version)
  | Get k -> Value (Server.get server k)
  | Put (k, v) ->
    Server.put server k v;
    Stamps (Server.stamps_for_keys server [ k ])
  | Remove k ->
    Server.remove server k;
    Stamps (Server.stamps_for_keys server [ k ])
  | Scan { lo; hi } -> (
    (* no retry loop above this call site (a host with no parking): a
       missing range is an error *)
    match Server.scan_result server ~lo ~hi with
    | `Ok pairs -> Pairs pairs
    | `Missing ranges ->
      let (t, mlo, mhi) = List.hd ranges in
      Error
        (Printf.sprintf "missing base range %s[%s,%s): owning peer unreachable" t
           mlo mhi))
  | Add_join text -> (
    match Server.add_join_text server text with
    | Ok () -> Done
    | Error msg -> Error msg)
  | Put_batch pairs ->
    Server.put_batch server pairs;
    Stamps (Server.stamps_for_keys server (List.map fst pairs))
  | Notify_batch { items; stamps } ->
    (* apply in source-write order; consecutive puts take the engine's
       batched path *)
    let flush acc = if acc <> [] then Server.put_batch server (List.rev acc) in
    let acc =
      List.fold_left
        (fun acc (k, v) ->
          match v with
          | Some v -> (k, v) :: acc
          | None ->
            flush acc;
            Server.remove server k;
            [])
        [] items
    in
    flush acc;
    (* only after every item is applied: the trailer asserts the pushed
       ranges are current at these versions *)
    List.iter
      (fun (table, lo, hi, stamp) -> Server.set_range_stamp server ~table ~lo ~hi stamp)
      stamps;
    Done
  | Get_at { key; min } -> (
    match Server.stamp_unsatisfied server min with
    | [] -> Value (Server.get server key)
    | unmet -> Stale unmet)
  | Scan_at { lo; hi; min } -> (
    match Server.stamp_unsatisfied server min with
    | [] -> apply_to_server server (Scan { lo; hi })
    | unmet -> Stale unmet)
  | Stats_full -> Metrics (Server.metrics_snapshot server)
  | Fetch _ -> Error "fetch is handled by the cluster layer"
  | Sub_check _ -> Error "sub_check is handled by the cluster layer"
  | Dir_get | Dir_watch _ | Dir_update _ ->
    Error "the partition directory is handled by the cluster layer"
  | Migrate _ -> Error "migrate is handled by the cluster layer"
