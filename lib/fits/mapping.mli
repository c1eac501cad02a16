(** Per-instruction mapping from the ARM-like ISA onto a synthesized FITS
    specification: the decision procedure behind the paper's Figure 3/4
    one-to-one mapping rates.

    An ARM instruction maps {e one-to-one} when some synthesized opcode
    covers it — same operation key, matching predicate, operands that fit
    the 16-bit fields (literal in range, immediate present in the head of
    the dictionary, register list in the table).  Anything else {e expands}
    into a short sequence of BIS/SIS instructions using the
    over-provisioned scratch register; expansions preserve the exact
    architectural semantics including flags (the final step of a sequence
    carries the original operation). *)

module A = Pf_arm.Insn

type oprd =
  | O_none
  | O_reg of int
  | O_lit of int        (** raw (descaled) 4-bit field value *)
  | O_dictval of int    (** 32-bit value; its dictionary index is the field *)
  | O_arg of int        (** 8-bit argument (system / movd formats) *)

(** What the programmable decoder turns the 16-bit word into. *)
type micro =
  | M_exec of A.t       (** an ordinary micro-operation *)
  | M_dp32 of { op : A.dp_op; s : bool; rd : int; rn : int; value : int;
                cond : A.cond }
      (** data-processing with a full 32-bit dictionary operand *)
  | M_jalr of int       (** call through register: lr := pc+2; pc := reg *)
  | M_undef of string
      (** poisoned decoder entry (fault injection): executing it raises a
          [Decode_fault]; the payload describes the corruption *)

type fdesc = {
  op : Spec.opdef;
  rc : int;
  ra : int;
  oprd : oprd;
  micro : micro;
}

type plan =
  | P_seq of fdesc list
      (** address-independent mapping; length 1 = one-to-one *)
  | P_branch of { cond : A.cond; link : bool; arm_target : int }
      (** B/BL: form chosen during layout (near direct / far expansion) *)

exception Unmappable of string
(** Raised when no finite expansion exists (e.g. register-list table
    overflow) — indicates a synthesis capacity bug, not a program bug. *)

val op_covers : Spec.t -> Spec.opdef -> A.t -> bool
val covered : Spec.t -> A.t -> Spec.opdef option

val plan : Spec.t -> pc:int -> A.t -> plan
(** [pc] is the ARM address of the instruction (for branch targets). *)

val plan_length : plan -> int
(** Sequence length; branches count optimistically as 1 (near form). *)

val may_change_plan : Spec.t -> Spec.opdef -> A.t -> bool
(** Whether appending [od] to [spec]'s opcodes ({!Spec.with_ais}) can
    change the {!plan} of [insn]: [true] iff [od] covers [insn] or, when
    [insn] is predicated, its condition-stripped base (the skip + inner
    path).  When it is [false] the plan stays the same: {!plan} takes
    the first covering opcode in spec order, and expansions use only the
    fixed SIS. *)

val seq_skip : Spec.t -> cond:A.cond -> count:int -> fdesc
(** The SK (skip-unless-cond) instruction used for predication fallback
    and far conditional branches; exposed for the layout phase. *)

val seq_materialize : Spec.t -> reg:int -> int -> fdesc
(** One instruction putting an arbitrary 32-bit constant in a register
    (short literal or dictionary load); exposed for far-branch layout. *)

val pool_load : Pf_arm.Image.t -> pc:int -> A.t -> (int * int) option
(** Recognize a PC-relative literal-pool load and resolve (rd, value). *)

val plan_in_image : Spec.t -> Pf_arm.Image.t -> pc:int -> A.t -> plan
(** Like {!plan}, but translates literal-pool loads into dictionary loads
    (the paper's immediate-synthesis mechanism). *)
