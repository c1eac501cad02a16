(** The FITS profiler (paper §3.2, the "profile" stage of Figure 1).

    Produces "an extensive requirement analysis related to each element
    that makes up an instruction set": opcode usage (by {!Opkey.t}),
    predication, operand shapes, immediate-field value distributions split
    into the three categories of §3.3 (operate immediates, memory
    displacements, branch displacements), and register pressure.  Both
    static (code image) and dynamic (execution-weighted) views are kept —
    static drives code size, dynamic drives power and performance. *)

open Pf_util

type t = {
  static_keys : (Opkey.predicated, int) Hashtbl.t;
  dyn_keys : (Opkey.predicated, int) Hashtbl.t;
  imm_op_static : Stats.histogram;   (** operate-immediate values *)
  imm_op_dyn : Stats.histogram;
  mem_ofs_static : Stats.histogram;  (** memory displacement bytes *)
  mem_ofs_dyn : Stats.histogram;
  branch_disp_static : Stats.histogram; (** branch displacement bytes *)
  reg_static : Stats.histogram;      (** register numbers read/written *)
  reg_dyn : Stats.histogram;
  mutable static_insns : int;
  mutable dyn_insns : int;
}

val create : unit -> t

val add : t -> ?dyn_weight:int -> Pf_arm.Insn.t -> unit
(** Record one static instruction executed [dyn_weight] times
    (0 = never executed; it still counts statically). *)

val of_image : Pf_arm.Image.t -> t
(** Static-only profile of an image. *)

val of_image_counts : Pf_arm.Image.t -> counts:int array -> t
(** Full static+dynamic profile from per-word execution counts already
    measured (e.g. {!Synthesis.dyn_counts_of_run}) — no execution. *)

(** {2 Profile algebra}

    Profiles of different programs combine by component-wise integer
    addition, giving the suite profile the multi-program synthesis of
    {!Pf_multi} feeds through the BIS/SIS/AIS machinery.  [merge] is
    commutative and associative modulo {!equal}, with [create ()] as its
    unit (property-tested in test/test_multi.ml). *)

val merge : t -> t -> t
(** Component-wise sum of two profiles; inputs are not mutated. *)

val merge_all : t list -> t
(** Fold of {!merge} over the list; [merge_all [] = create ()] and
    [equal (merge_all [p]) p]. *)

val scale : t -> int -> t
(** [scale t k] multiplies every {e dynamic} count by [k] (static counts
    describe the code image and are left untouched) — the per-program
    weighting hook of {!Pf_multi.Weighting}.
    @raise Pf_util.Sim_error.Error on a negative factor. *)

val equal : t -> t -> bool
(** Semantic equality: canonical (sorted, zero-entry-free) comparison of
    every component, independent of hashtable internals. *)

val dyn_key_count : t -> Opkey.predicated -> int
val static_key_count : t -> Opkey.predicated -> int

val keys_by_dyn_weight : t -> (Opkey.predicated * int) list
(** All observed keys, heaviest dynamic count first. *)

val registers_by_use : t -> int list
(** Register numbers sorted by descending dynamic use. *)

val summary : t -> string
(** Human-readable profile report. *)
