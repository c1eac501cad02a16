(** Memoized {!Pf_dse.Explore.recording}s, shared across evaluate and
    explore-point requests.

    The service keeps each program's halves here: an ARM half, keyed by
    program content, unroll and effective max_steps, and a FITS half per
    (dictionary budget, weighting), built on the ARM half.  None is a
    function of cache geometry, so a client walking a geometry grid needs
    a program recorded once, not once per point, and evaluates of both
    ISAs share one ARM execution.  The table is mutex-protected and
    LRU-bounded; recordings are immutable, so a shared one can be read
    by concurrent worker domains. *)

type t

val default_capacity : int
(** 8 — traces are the largest objects the daemon holds. *)

val create : ?capacity:int -> unit -> t

val find_or_record :
  t -> key:string -> (unit -> Pf_dse.Explore.recording) ->
  Pf_dse.Explore.recording * bool
(** [find_or_record t ~key f] returns the memoized recording for [key]
    (flag [true]), or runs [f] to record, inserts, and returns it (flag
    [false]).  [f] runs outside the table lock: two workers racing on
    the same fresh key may both record — bit-identical results, first
    insert wins, both callers share the winner. *)

val stats : t -> int * int * int
(** [(shared, recorded, entries)]: lookups served from the table,
    recordings inserted (each half counts once), and current size. *)
