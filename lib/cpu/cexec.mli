(** The block driver of the [Compiled] engine, one loop for both ISAs.

    Dispatches once per basic block ({!Pf_arm.Bexec}): maximal runs of
    ALU-shaped instructions execute first and issue as one
    {!Pipeline.issue_alu_seq_span} call, recording runs emit
    block-granular trace events ({!Trace.record_span} over a registered
    (addr, meta) table), and FITS source-retirement counts are summed per
    block at block-compile time.  Blocks are built lazily.

    The halt transition, faulting fetches, legality-fallback blocks and
    every block inside which a step-budget exhaustion or a deadline poll
    would land run one instruction at a time through {!Step.step}, so
    cutoffs, faults and polls happen at exactly the step count and pc of
    the per-instruction loop. *)

val run : Step.t -> unit
(** Run the stepper's program to halt (or to the first raise).  Reads
    and writes the stepper's state directly; {!Step.result} afterwards
    reports the run.  Allocates only when a block is first built. *)
