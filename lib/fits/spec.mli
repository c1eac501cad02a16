(** Synthesized FITS instruction-set specifications.

    A specification describes one application's 16-bit ISA: which
    operations got opcodes, in which format, with which immediate policy,
    plus the contents of the programmable immediate dictionary and
    register-list table.  It is the output of {!Synthesis} and the input
    of {!Translate}.

    {2 Encoding capacity model}

    Every instruction is 16 bits with a 4-bit primary opcode: 16 {e groups}
    (paper Figure 2 formats).  A group is spent on one of:

    - {b Operate3}: [op(4) rc(4) ra(4) oprd(4)] — one three-operand
      operation per group; [oprd] is a register, a 4-bit literal, or a
      dictionary index, fixed per opcode.
    - {b Operate2}: [op(4) sub(4) rd(4) oprd(4)] — sixteen two-operand
      sub-operations per group ([rd] is both source and destination).
    - {b Memory}: [op(4) rd(4) rb(4) oprd(4)] — one load/store per group;
      [oprd] is a width-scaled displacement or an index register.
    - {b Branch}: [op(4) disp(12)] — displacement in 16-bit units.
    - {b Bcc}: [op(4) cond(4) disp(8)] — all conditional branches in one
      group with a short displacement.
    - {b MovD}: [op(4) rd(4) idx(8)] — load one of 256 dictionary
      constants (the §3.3 immediate-synthesis mechanism).
    - {b System}: [op(4) sub(4) arg(8)] — SWI, BX, JALR (branch-register
      with link), PUSH/POP (arg indexes a synthesized register-list
      table), and SK<cc> (skip-next-n, the predication fallback). *)

module A = Pf_arm.Insn

type imm_policy =
  | Imm_none
  | Imm_lit of { scale : int }
      (** 4-bit literal, value = field * 2^scale *)
  | Imm_dict                       (** 4-bit dictionary index (entries 0-15) *)

type format =
  | Fmt_operate3
  | Fmt_operate2
  | Fmt_memory
  | Fmt_branch12
  | Fmt_bcc
  | Fmt_movd
  | Fmt_system

(** System sub-operations (fixed semantics, decoder-assigned encodings). *)
type system_op =
  | Sys_swi
  | Sys_bx
  | Sys_jalr                       (** call through register *)
  | Sys_push of int                (** register-list table index *)
  | Sys_pop of int
  | Sys_skip of A.cond             (** skip next [arg] instructions unless
                                       [cond] holds *)

type opdef = {
  id : int;
  name : string;
  key : Opkey.t option;       (** the ARM operation key covered (1-to-1) *)
  cond : A.cond;              (** baked-in predicate (AL = none) *)
  imm : imm_policy;
  fmt : format;
  group : int;                (** primary opcode *)
  sub : int;                  (** sub-opcode within the group, else 0 *)
  sys : system_op option;     (** for [Fmt_system] ops *)
}

(** Handles to the base-and-supplemental instruction sets (paper §3.3:
    BIS = operations found across all applications, SIS = the additions
    that make the ISA Turing-complete and give every ARM instruction a
    finite expansion).  The translator's fallback sequences are built
    exclusively from these. *)
type sis = {
  mov_rr : opdef; mov_ri : opdef; movd4 : opdef; mvn_rr : opdef;
  add2 : opdef; sub2 : opdef; cmp_rr : opdef; cmp_ri : opdef;
  and2 : opdef; orr2 : opdef; eor2 : opdef; bic2 : opdef;
  lsl2i : opdef; lsr2i : opdef; asr2i : opdef; orr2i : opdef;
  ror2i : opdef; lsl2r : opdef; lsr2r : opdef; asr2r : opdef;
  ror2r : opdef; tst_rr : opdef; cmn_rr : opdef; adc2 : opdef;
  sbc2 : opdef; rsb2i : opdef; mul2 : opdef;
  ldrw : opdef; strw : opdef; ldrb : opdef; strb : opdef;
  b_al : opdef; bl_al : opdef; bcc : opdef; movd8 : opdef;
  swi : opdef; bx : opdef; jalr : opdef; push : opdef; pop : opdef;
  skip : opdef;
}

type t = {
  reg_bits : int;             (** register field width (4 in this model) *)
  ops : opdef array;
  sis : sis;
  dict : int array;           (** immediate dictionary, by index *)
  reglists : A.reg list array;(** PUSH/POP register-list table *)
  groups_used : int;
  free_subops : int;          (** unallocated operate2 sub-slots *)
}

val max_groups : int
(** 16 primary opcode groups. *)

val dict_capacity : int
(** 256 dictionary entries. *)

val temp_reg : int
(** The over-provisioned datapath register (16, beyond ARM's r0-r15) that
    fallback expansions use as scratch — a FITS core exposes more physical
    registers than the source ISA names (paper §3.1). *)

val shift_amount_wildcard : int
(** [-1]: in a [Sh_shift_imm] key of an opdef, matches any amount 0..15
    carried in the literal field (used by the SIS shift sub-ops). *)

val base : dict_head:int array -> reglists:A.reg list array -> t
(** The pre-AIS specification: the two operate2 groups holding BIS + SIS
    sub-ops, word/byte loads and stores, B/BL, the compact conditional
    branch group, MovD and the system group — 11 of the 16 primary groups,
    leaving 5 for application-specific synthesis. *)

val dict_index : t -> int -> int option
(** Index of a value in the dictionary, if present. *)

val reglist_index : t -> A.reg list -> int option

val with_ais : t -> opdef list -> t
(** Extend the spec with application-specific ops (ids/groups/subs must
    already be assigned consistently by the synthesizer). *)

val with_data_plane : t -> dict:int array -> reglists:A.reg list array -> t
(** Keep the opcode assignment (the "control plane" burned into the
    programmable instruction decoder) but swap the per-application data
    tables — immediate dictionary and register-list table.  This is the
    §3.1 upgrade scenario: reconfiguring the decoder for new software
    without re-synthesizing opcodes.  bench/main.exe's cross-application
    reuse study and the population campaigns' per-phase data planes are
    built on it. *)

val encode : t -> opdef -> rc:int -> ra:int -> oprd:int -> int
(** Pack fields into the 16-bit word for [opdef].  Field meaning depends
    on the format; unused fields must be 0.  For branches [oprd] is the
    12- or 8-bit displacement field (in 16-bit units, already encoded as
    unsigned); for movd/system [oprd] is the 8-bit argument. *)

val describe : t -> string
(** Human-readable ISA listing (one line per opcode). *)
