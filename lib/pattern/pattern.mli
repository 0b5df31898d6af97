(** Key patterns with named slots — the vocabulary of cache joins.

    A pattern like [t|<user>|<time>|<poster>] describes a family of keys:
    ['|']-separated segments that are either literals or {e slots} (angle
    brackets). Slot names are interned to integer ids shared across the
    patterns of one join, so a plain [string option array] describes a
    {e slot set} (§3.1 of the paper) for the whole join.

    Numeric slots that participate in range narrowing should use
    fixed-width encodings ({!Strkey.encode_int}); with variable-width
    values, containing ranges remain correct over-approximations for
    aligned scans but exotic cross-boundary scans may be imprecise. *)

type t

(** Residual constraint on one slot: value in [\[rlo, rhi)], [None] being
    unconstrained on that side. Produced by {!bind_range} for the first
    partially-constrained slot; consumed by {!containing_range}. *)
type residual = { slot : int; rlo : string option; rhi : string option }

exception Parse_error of string

(** [parse ~intern text] compiles a pattern; [intern] maps slot names to
    shared ids. Raises {!Parse_error} on malformed text (empty segments,
    stray brackets, leading slot). *)
val parse : intern:(string -> int) -> string -> t

(** The pattern's source text. *)
val text : t -> string

(** Number of segments. *)
val nsegs : t -> int

(** The leading literal segment: the pattern's table. *)
val table : t -> string

(** Ids of the slots the pattern mentions, in order of appearance. *)
val slots : t -> int list

val mentions_slot : t -> int -> bool

(** The pattern's natural subtable boundary (§4.1): how many leading
    segments reach its first slot, when more segments follow it
    ([t|<user>|<time>|<poster>] gives [Some 2]); [None] when the first
    slot is the last segment or there is none. *)
val boundary_depth : t -> int option

(** [match_key t key ~bindings] matches [key] against the pattern,
    returning bindings extended with newly bound slots — or [None] on a
    shape mismatch, literal mismatch, or conflict with an existing
    binding. The input array is never mutated. *)
val match_key : t -> string -> bindings:string option array -> string option array option

(** Build the key denoted by the pattern under full bindings.
    @raise Invalid_argument if a mentioned slot is unbound. *)
val build_key : t -> string option array -> string

val fully_bound : t -> string option array -> bool

(** The minimal key range containing every key the pattern can produce
    under the slot set (§3.1). The residual's bounds narrow the range when
    its slot is the first unbound one. *)
val containing_range :
  t -> bindings:string option array -> residual:residual option -> string * string

(** Derive a slot set from a requested key range (§3.1's
    [join.slotset(table, first, last)]): exact bindings for the segments
    every key in the range agrees on, plus a residual for the first
    partially-constrained slot. [None] when the range can contain no key
    of this pattern. *)
val bind_range :
  t -> lo:string -> hi:string -> nslots:int -> (string option array * residual option) option
