(** Micro-op compiler: predecode once, execute without allocating.

    Compiles each static instruction once into a flat micro-op record —
    rotated immediates resolved, branch targets absolute, register lists as
    int arrays, pipeline metadata (class/read/write masks/direction)
    attached — then executes with zero per-step heap allocation.  Shares
    the flag and memory semantics of {!Exec} so results are bit-identical
    to the reference interpreter (asserted by the differential test over
    the full benchmark suite).  {!exec} and {!exec_dp_nr} are the
    compiled engine's execution primitives: in lib/ only
    [Pf_cpu.Step.step] and the block driver [Pf_cpu.Cexec.run] call
    them (a lint rule). *)

(** One predecoded instruction.  All fields are immutable and resolved at
    predecode time; the runners read the metadata fields directly. *)
type uop = private {
  code : int;               (** dispatch code; see {!code_undef} *)
  cond : Insn.cond;
  op : Insn.dp_op;
  s : bool;
  rd : int;
  rn : int;
  rm : int;
  rs : int;
  kind : Insn.shift_kind;
  amount : int;
  imm : int;                (** resolved DP immediate / mem offset / swi # *)
  carry : int;              (** immediate carry: [-1] keep C, else 0/1 *)
  load : bool;
  width : Insn.mem_width;
  signed : bool;
  writeback : bool;
  link : bool;
  acc : int;                (** MLA accumulator register, [-1] = none *)
  rlist : int array;        (** push/pop register list *)
  nregs : int;
  target : int;             (** resolved B target *)
  fall : int;               (** fall-through pc *)
  pc8 : int;                (** what reading r15 yields *)
  lr_val : int;             (** return address stored by BL / JALR *)
  align : int;              (** pc alignment mask, [lnot (isize - 1)] *)
  src_pc : int;
  cls : int;                (** pipeline class, {!Pf_cpu.Trace.cls_code} numbering *)
  reads : int;              (** source-register mask ({!Insn.read_mask}) *)
  writes : int;             (** destination-register mask *)
  backward : bool;          (** backward branch (static prediction) *)
  why : string;             (** undef diagnostic *)
}

val code_undef : int
(** Dispatch code of non-executable slots (data words, corrupted decoder
    entries).  {!exec} raises [Decode_fault] on them; fetch loops test
    [u.code = code_undef] to fault with their own message. *)

(** {2 Dispatch codes}

    The [code] field's values, exported for the basic-block compiler
    ({!Bexec}), which classifies micro-ops (terminator? DP family?
    pc-writing?) at block-build time.  [k_dp_imm .. k_dp_shift_reg] are
    contiguous from 0, so [code <= k_dp_shift_reg] tests DP-family
    membership. *)

val k_dp_imm : int
val k_dp_reg : int
val k_dp_shift_imm : int
val k_dp_shift_reg : int
val k_mem : int
val k_mem_reg : int
val k_mul : int
val k_push : int
val k_pop : int
val k_b : int
val k_bx : int
val k_swi : int
val k_jalr : int

type program = {
  uops : uop array;         (** indexed by static slot, like [Image.insns] *)
  code_base : int;
  entry : int;
}

val of_insn : isize:int -> pc:int -> Insn.t -> uop
(** Predecode one instruction located at [pc].  [isize] is the encoded
    size in bytes (4 for ARM, 2 for FITS micro-ops), controlling the
    fall-through pc, branch-and-link return address and pc alignment. *)

val dp_value :
  isize:int ->
  pc:int ->
  cond:Insn.cond ->
  op:Insn.dp_op ->
  s:bool ->
  rd:int ->
  rn:int ->
  value:int ->
  uop
(** Data-processing with a raw 32-bit operand from the FITS immediate
    dictionary: the predecoded form of {!Exec.execute_dp_value}. *)

val jalr : pc:int -> rm:int -> uop
(** FITS expansion-group return branch: [lr := pc + 2; pc := rm land -2]. *)

val undef : isize:int -> pc:int -> why:string -> uop

val compile : Image.t -> program
(** Predecode a whole ARM image (data words become {!undef} slots). *)

val exec : Exec.t -> Exec.outcome -> uop -> unit
(** Execute one micro-op: same state updates and outcome fields as
    {!Exec.execute}, no heap allocation. *)

val elide_flags : uop -> uop
(** Copy of a micro-op with [s = false]: same register-file semantics, no
    condition-flag writes.  The block compiler applies it to S-suffixed
    ops whose flag results are provably dead within their basic block;
    pipeline metadata is unchanged so the event stream is identical. *)

val exec_dp_nr : Exec.t -> Exec.outcome -> uop -> unit
(** Execute a DP-family micro-op ([code <= k_dp_shift_reg]) known to be
    unconditional and non-pc-writing — the block compiler's straight-line
    fast shape.  Skips the condition test and the outcome resets {!exec}
    performs; the caller owns the pc.  Calling it on any other micro-op is
    undefined (the compiler's shape analysis is the proof obligation). *)

val run : ?max_steps:int -> ?deadline:Pf_util.Deadline.t -> program -> Exec.t -> unit
(** Fetch-execute loop over a predecoded program: the counterpart of
    {!Exec.run} without a per-step callback — same watchdog, deadline
    polling and fault behaviour. *)

val run_counting :
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  program ->
  Exec.t ->
  counts:int array ->
  unit
(** {!run} plus a per-slot execution histogram ([counts] is indexed like
    [program.uops]) — the profiling loop used by FITS synthesis. *)
