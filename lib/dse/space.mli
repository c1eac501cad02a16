(** Declarative description of the cache-geometry design space.

    The paper evaluates four fixed configurations (ARM16/ARM8/FITS16/
    FITS8); this module makes the implicit space around them explicit — a
    grid of cache size × block size × associativity, crossed with FITS
    synthesis knobs (the shared-dictionary budget) — and answers the
    before-launch questions: is the grid well-formed, how many points is
    it, and what will evaluating it cost in executions and replays.

    All axes are kept sorted and deduplicated, so every consumer
    enumerates the space in one canonical order: results are a function
    of the space alone, never of axis spelling or worker scheduling. *)

type t = {
  sizes : int list;         (** cache sizes, bytes *)
  blocks : int list;        (** block (line) sizes, bytes *)
  assocs : int list;        (** associativities (ways) *)
  dict_budgets : int option list;
      (** FITS dictionary budgets; [None] = uncapped per-application
          synthesis (the paper's flow), [Some b] caps the dictionary at
          [b] entries via {!Pf_fits.Synthesis.synthesize_suite} *)
}

val make :
  ?blocks:int list ->
  ?assocs:int list ->
  ?dict_budgets:int option list ->
  sizes:int list ->
  unit ->
  t
(** Sorts and deduplicates every axis, then {!validate}s.  Defaults:
    32-byte blocks, 32 ways, uncapped dictionary — the paper's fixed
    organization, so [make ~sizes:[8*1024; 16*1024] ()] is exactly the
    paper's cache axis. *)

val validate : t -> unit
(** Raises [Pf_util.Sim_error] ([Invalid_config]) listing every problem:
    an empty axis, a non-power-of-two entry (sizes ≥ 64, blocks ≥ 4,
    assocs ≥ 1), a non-positive dictionary budget, or a space whose every
    size/block/assoc combination is degenerate. *)

val geometries : t -> Pf_cache.Icache.config list
(** The feasible cache geometries of the grid, in canonical (size, block,
    assoc) lexicographic order.  Infeasible corners of the cross product
    (cache smaller than a block, more ways than lines) are skipped
    deterministically — see {!cardinality.skipped}; every returned config
    passes {!Pf_cache.Icache.validate}. *)

type cardinality = {
  combos : int;    (** raw size × block × assoc cross product *)
  feasible : int;  (** geometries surviving the feasibility filter *)
  skipped : int;   (** infeasible corners dropped ([combos - feasible]) *)
  variants : int;  (** ISA variants: 1 (ARM) + one FITS per dict budget *)
  points : int;    (** [feasible * variants] per benchmark *)
}

val cardinality : t -> cardinality

(** {2 Evaluation engine}

    How recorded traces are turned into per-geometry statistics:
    [Replay] drives a fresh cache/pipeline/power stack through the trace
    once per geometry; [Sweep] makes one stack-distance annotated pass
    per trace that evaluates every geometry simultaneously
    ({!Pf_dse.Sweep}).  Both produce bit-identical statistics. *)

type engine = Replay | Sweep

val engine_label : engine -> string
(** ["replay"] / ["sweep"]. *)

val profiles : t -> int
(** Distinct (block size, set count) pairs among the feasible
    geometries — the number of Mattson stack-distance profiles one sweep
    pass maintains.  Sweep cost scales with this, replay cost with
    {!cardinality.feasible}. *)

type cost = {
  executions : int;   (** recording runs: benchmarks × variants *)
  replays : int;      (** trace replays the [Replay] engine would do:
                          executions × geometries *)
  points_total : int; (** evaluated (benchmark, variant, geometry) points *)
  profiles : int;     (** stack profiles per sweep pass ({!profiles}) *)
  sweep_passes : int; (** annotated passes the [Sweep] engine would do:
                          one per recorded trace = [executions] *)
}

val cost : benchmarks:int -> t -> cost
(** What {!Explore.run} will do for a [benchmarks]-program suite: each
    benchmark executes once per ISA variant (recording a trace), and each
    trace is swept once covering all geometries at once (2 executions +
    2 passes per benchmark on the default variant axis).  [replays] is
    what the replay oracle would need instead: 2·N per benchmark. *)

(** {2 Named points and grids} *)

val cache_16k : Pf_cache.Icache.config
(** The paper's 16 KB, 32-byte-block, 32-way SA-1100 I-cache — the ARM16
    / FITS16 grid point.  The single source of these constants:
    [Pf_harness.Experiment] and the CLI alias them from here. *)

val cache_8k : Pf_cache.Icache.config
(** The paper's 8 KB variant — the ARM8 / FITS8 grid point. *)

val recording_point : Pf_cache.Icache.config
(** Geometry used for the one recording execution per ISA ({!cache_16k});
    any valid geometry records the same stream, since geometry never
    changes architectural behaviour. *)

val paper_point : arm:bool -> Pf_cache.Icache.config -> string option
(** ["ARM16"], ["ARM8"], ["FITS16"] or ["FITS8"] when the (ISA, geometry)
    pair is one of the paper's four configurations; [None] elsewhere.
    Drives the "paper points" annotation of [powerfits explore]. *)

val smoke : t
(** Tiny CI grid: {4, 8, 16} KB × {8, 32} ways × 32 B blocks — 6
    geometries including both paper points. *)

val full : t
(** The headline grid: {1..32} KB × {2, 8, 32} ways × {16, 32} B blocks —
    36 geometries including both paper points. *)

val dense : t
(** The full-resolution grid: every power-of-two size 64 B – 8 MB ×
    blocks 4–256 B × ways 1–1024 — 1058 feasible geometries (of 1386
    corners), including both paper points.  Sized for the single-pass
    sweep engine. *)

val of_string : string -> (t, string) result
(** Parse a [--grid] argument: ["smoke"], ["full"], ["dense"], or a spec
    of the form
    ["sizes=1k,2k,16k;blocks=16,32;assocs=2,32;dicts=none,96"] (sizes and
    blocks accept a [k] suffix; [dicts] accepts ["none"] for the uncapped
    flow).  Validation problems come back as [Error msg]. *)

(** {2 Presentation} *)

val label : Pf_cache.Icache.config -> string
(** Short geometry tag, e.g. ["16K/32B/32w"]. *)

val describe : benchmarks:int -> t -> string
(** One-line pre-launch summary: axes, feasible/skipped counts, variants,
    and the execution/sweep cost for a [benchmarks]-program run. *)
