(** Deterministic core-interleaving scheduler.

    One core advances per machine slice; this module picks which.  Both
    policies are pure functions of the seed and the query history, so a
    machine run is bit-identical for a given seed and independent of any
    surrounding [--jobs] fan-out (which parallelizes across seeds, never
    inside a machine). *)

type policy =
  | Round_robin   (** cyclic scan, skipping non-runnable cores *)
  | Seeded_random (** uniform over runnable cores, one {!Pf_util.Rng} draw
                      per slice *)

val policy_of_string : string -> policy option
(** ["rr"]/["round-robin"] and ["random"]/["seeded-random"]. *)

val policy_to_string : policy -> string

type t

val create : ?policy:policy -> ncores:int -> int -> t
(** [create ~ncores seed].  Raises [Invalid_config] when [ncores < 1].
    [policy] defaults to {!Round_robin} (the seed is then unused but
    still fixed, so switching policies never perturbs anything else). *)

val ncores : t -> int

val next : t -> runnable:(int -> bool) -> int
(** The core to advance next, or [-1] when no core is runnable (the
    machine has quiesced).  [runnable] is queried with core indices in
    [0, ncores).  Allocates nothing, so a caller that builds [runnable]
    once picks a core per slice without touching the heap. *)
