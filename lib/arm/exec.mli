(** Architectural interpreter for the ARM-like ISA.

    [Exec] owns the machine state (registers, NZCV flags, byte-addressed
    memory loaded with the program image) and executes one decoded
    instruction at a time.  It is deliberately decoupled from *fetch*: the
    plain ARM runner steps through the image, while the FITS runner feeds
    the same state with micro-operations produced by the programmable
    decoder — both share these semantics, mirroring how a FITS core keeps
    the host datapath (paper §3.1). *)

(** All failures raise {!Pf_util.Sim_error.Error}: [Memory_fault] for
    unaligned or out-of-range accesses, [Decode_fault] for undecodable
    words and unknown SWIs, [Watchdog_timeout] for step-budget
    exhaustion. *)

type mem
(** Byte-addressed memory of [image.mem_size] bytes, paged: a page is
    allocated only when first written, and an unwritten byte reads as
    zero.  Reach it only through the load and store functions below. *)

type t = {
  regs : int array;
      (** 17 registers, unsigned 32-bit: r0-r15 plus one over-provisioned
          scratch (index 16) used by FITS expansion micro-ops *)
  mutable nf : bool;
  mutable zf : bool;
  mutable cf : bool;
  mutable vf : bool;
  mem : mem;
  image : Image.t;
  mutable halted : bool;
  out : Buffer.t;          (** text written by SWI print calls *)
  mutable steps : int;     (** dynamic instruction count *)
}

val halt_sentinel : int
(** Address preloaded into [lr] at startup; returning to it halts. *)

val create : Image.t -> t
(** Fresh state: memory holds the code and initialized data and reads as
    zero elsewhere, [sp] points to the top of memory, [lr] to
    {!halt_sentinel}, [pc] to the entry point.  It allocates the page
    table (one slot per 4 KB of [mem_size]) and the pages the code and
    data occupy, never the rest of [mem_size]. *)

(** Result of executing one instruction; a single mutable record is reused
    across steps to keep the simulator allocation-free on the hot path. *)
type outcome = {
  mutable executed : bool;       (** condition passed *)
  mutable branch_taken : bool;
  mutable next_pc : int;
  mutable mem_addr : int;        (** effective address, [-1] if none *)
  mutable mem_is_load : bool;
  mutable mem_words : int;       (** words transferred (push/pop > 1) *)
}

val outcome : unit -> outcome

val execute : ?isize:int -> t -> pc:int -> Insn.t -> outcome -> unit
(** Execute one instruction whose address is [pc].  Updates registers,
    flags and memory; fills the outcome (including [next_pc]).  Does not
    itself advance any program counter.

    [isize] (default 4) is the instruction's size in bytes: it controls the
    fall-through [next_pc] and the return address stored by branch-and-link.
    The FITS runner passes 2, executing the same micro-operation semantics
    at 16-bit granularity. *)

val execute_dp_value :
  ?isize:int ->
  t ->
  pc:int ->
  cond:Insn.cond ->
  op:Insn.dp_op ->
  s:bool ->
  rd:int ->
  rn:int ->
  value:int ->
  outcome ->
  unit
(** Data-processing with a raw 32-bit second operand (no shifter): the
    semantics of a FITS instruction whose operand comes from the immediate
    dictionary.  The shifter carry-out is the current C flag. *)

val load_word : t -> int -> int
(** Read a word of simulated memory (for result checking). *)

val store_word : t -> int -> int -> unit

val load_byte : t -> int -> int

(** {2 Engine internals}

    Shared with {!Pexec}, the micro-op compiler, so both interpreters
    use the very same flag and memory semantics (the differential tests
    assert the results are bit-identical). *)

val store_byte : t -> int -> int -> unit
val load_half : t -> int -> int
val store_half : t -> int -> int -> unit

val cond_passed : t -> Insn.cond -> bool

val set_nz : t -> int -> unit
(** Set N/Z from a u32 result. *)

val add_with_flags : t -> set_flags:bool -> int -> int -> int -> int
(** [add_with_flags t ~set_flags a b cin] is the u32 of [a + b + cin],
    updating NZCV when [set_flags]. *)

val sub_with_flags : t -> set_flags:bool -> int -> int -> int -> int
(** [a - b - (1 - cin)], expressed as [a + lnot b + cin]. *)

val deadline_mask : int
(** The execute loops poll their wall-clock deadline whenever
    [steps land deadline_mask = 0] — every 65536 instructions. *)

val run :
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  t ->
  on_step:(t -> pc:int -> Insn.t -> outcome -> unit) ->
  unit
(** Fetch-execute loop from the current [pc] until halt (SWI #0 or return
    to the sentinel).  Raises [Sim_error.Error] with [Watchdog_timeout] on
    [max_steps] exhaustion (default 500 million) — runaway programs are a
    bug, not a result — or when the monotonic-clock [deadline] (polled
    every [deadline_mask + 1] steps) expires. *)

val output : t -> string
(** Everything printed through SWI so far. *)
