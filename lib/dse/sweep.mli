(** Single-pass all-geometry cache simulation (Mattson stack distances).

    {!run} makes ONE annotated pass over a recorded trace and produces,
    for every cache geometry of a grid simultaneously, statistics that
    are bit-identical to what {!Pf_cpu.Trace.replay} measures geometry
    by geometry — hits, misses, cycle counts, toggle activity, energy
    breakdown and instruction-windowed peak power.

    The kernel exploits three properties of the simulated machine (see
    the implementation header for the correctness argument, and
    DESIGN.md for the full derivation):

    - the I-cache is exact LRU, so one Mattson stack-distance profile
      per (block size, set count) pair resolves hit/miss for all
      associativities at once (LRU inclusion);
    - the instruction stream, fetch filtering, output-bus words and
      data-side stalls are geometry-invariant, so they are computed once
      and shared by all lanes;
    - dual-issue pairing and power accounting admit per-lane recurrences
      evaluated word-parallel over lane bitmasks, with peak windows
      closing on instruction-aligned (hence geometry-invariant) trace
      indices.

    Cost is O(events x profiles) time and O(code span) space per
    profile, instead of replay's O(events x geometries) — on dense
    grids (many associativities and sizes per block size) this is an
    order of magnitude faster than per-geometry replay.  The replay
    path remains the differential-testing oracle. *)

val run :
  geometries:Pf_cache.Icache.config list ->
  fetch_data:(int -> int) ->
  Pf_cpu.Trace.t ->
  Pf_cpu.Trace.stats array
(** Evaluate every geometry of [geometries] against the trace in one
    pass, on the {!Pf_cpu.Pipeline.sa1100} timing model, and return one
    stats record per geometry in input order, each bit-identical to
    [Trace.replay ~cache_cfg:geometry] of the same trace.  [fetch_data]
    must be the recording run's word-at-address function, exactly as for
    {!Pf_cpu.Trace.replay}.  Each lane's power coefficients are
    {!Pf_power.Account.Params.for_geometry} of its geometry, as a
    replay's account picks them.  Geometries are validated
    ({!Pf_cache.Icache.validate}); duplicates are allowed and evaluated
    independently. *)
