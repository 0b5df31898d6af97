(** Helpers shared across the executable test suite (linked into each
    test executable; not a test itself).

    {b Seed derivation.} Randomized tests draw generators through
    {!derive_seed} (re-exported from the fuzz harness, which documents
    the splitmix64 construction): stream [i] of root [r] is the
    splitmix64 finalization of [r + (i + 1) * 0x9E3779B97F4A7C15],
    masked to a non-negative int. Tests that need several independent
    generators should take streams [0, 1, 2, ...] of one fixed root via
    {!rng_of} instead of inventing ad-hoc seed constants — streams never
    collide across roots, and any failure is reproducible from
    [(root, stream)] alone. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_pairs = Alcotest.(check (list (pair string string)))

(** Fixed-width timestamp component for timeline keys, matching the
    paper's [p|<poster>|<time>] examples. *)
let tm i = Strkey.encode_int ~width:4 i

let derive_seed = Pequod_fuzz.Fuzz.derive_seed
let rng_of root i = Rng.create (derive_seed root i)

(** Fresh scratch directory under the system temp dir, recursively
    cleared first if a previous run left it behind. *)
let fresh_dir ?(prefix = "pequod-test") () = Pequod_fuzz.Fuzz.fresh_dir ~prefix ()

(** The host half of the §3.3 fetch loop, as a blocking caller runs it:
    scan, feed every range the scan reports missing with the [backing]
    pairs inside it ({!Pequod_core.Server.feed_base}), and retry until
    the scan completes. *)
let rec scan_fed s ~backing ~lo ~hi =
  match Pequod_core.Server.scan_result s ~lo ~hi with
  | `Ok pairs -> pairs
  | `Missing ranges ->
    List.iter
      (fun (table, flo, fhi) ->
        Pequod_core.Server.feed_base s ~table ~lo:flo ~hi:fhi ~stamp:0
          (List.filter (fun (k, _) -> Strkey.in_range ~lo:flo ~hi:fhi k) backing))
      ranges;
    scan_fed s ~backing ~lo ~hi
