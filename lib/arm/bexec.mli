(** Basic-block compiler over predecoded micro-ops.

    Groups straight-line runs of {!Pexec.uop}s into superblocks so the
    engines dispatch once per block instead of once per instruction:
    within a block the pc is an arithmetic progression, bounds and undef
    checks are settled at compile time, and a per-instruction {e shape}
    tells the driver the cheapest sound way to execute each step.  A
    backward flag-liveness pass elides condition-flag writes that are
    provably dead within the block (exits assume all flags live, so
    architectural flag state is exact at every block boundary).

    Blocks are discovered lazily, one per entry pc: an indirect branch
    into the middle of an existing block just builds another (overlapping)
    block starting there.  The executed and recorded event stream is
    bit-identical to the per-instruction engines' — asserted by the
    three-way differential tests. *)

(** {2 Shapes}

    What the driver must do for one instruction of a block. *)

val sh_nop : int
(** Dead compare: skip execution (count the step, issue/record the
    unchanged pipeline event). *)

val sh_dp : int
(** Unconditional non-pc-writing DP op: execute with
    {!Pexec.exec_dp_nr}, issue within its run's ALU span
    ([Pipeline.issue_alu_seq_span]). *)

val sh_gen : int
(** General non-terminating op: full {!Pexec.exec} + full issue; control
    still falls through. *)

val sh_term : int
(** Block terminator: full execution; the dynamic next-pc decides the
    next dispatch. *)

type block = {
  start : int;             (** leader index into the program's uop array *)
  len : int;
  xuops : Pexec.uop array; (** executed forms (possibly flag-elided) *)
  orig : Pexec.uop array;  (** original forms: event metadata, fallback *)
  shapes : int array;
  has_term : bool;
      (** false: block was cut by the length cap, code end or an undef
          slot, and falls through to [start + len] *)
  fallback : bool;
      (** drive this block with the exact per-instruction loop body
          (undef leader, or an out-of-range dispatch code) *)
  mutable execs : int;     (** dynamic dispatch count (probe histograms) *)
}

type t

val create : Pexec.uop array -> t
(** Lazy block table over a predecoded program ([Pexec.program.uops] or
    the FITS translated stream).  No blocks are built until
    {!block_at}.  Blocks are capped at 64 instructions: longer
    straight-line runs split into chained fall-through blocks, bounding
    the per-dispatch watchdog/deadline granularity adjustment. *)

val slots : t -> int
(** Static slots == [Array.length uops]; valid leader indices. *)

val block_at : t -> int -> block
(** The block whose leader is slot [s], building (and caching) it on
    first use.  [s] must be in [\[0, slots t)]. *)

val blocks_built : t -> int

val iter_built : t -> (block -> unit) -> unit
(** Iterate the blocks built so far, in leader order — probe's static
    and dynamic ([execs]-weighted) block-length histograms. *)

(**/**)

(* Analysis predicates, exposed for tests and the probe tool. *)
val terminates : Pexec.uop -> bool
val flag_writes : Pexec.uop -> int
val flag_reads : Pexec.uop -> int
