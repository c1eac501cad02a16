(* The per-instruction path as a third engine row for the differential
   tests: [Pf_cpu.Step.step] alone, one instruction at a time — the loop
   a multicore core runs, and the one the FITS [on_step] hook drives. *)

module AR = Pf_cpu.Arm_run

let arm ?cache ?cache_cfg ?max_steps ?trace image =
  let s = Pf_cpu.Step.of_image ?cache ?cache_cfg ?max_steps ?trace image in
  while not (Pf_cpu.Step.halted s) do
    Pf_cpu.Step.step s
  done;
  let r = Pf_cpu.Step.result s in
  {
    AR.instructions = r.Pf_cpu.Step.instructions;
    cycles = r.Pf_cpu.Step.cycles;
    ipc = r.Pf_cpu.Step.ipc;
    fetch_accesses = r.Pf_cpu.Step.fetch_accesses;
    output = r.Pf_cpu.Step.output;
    cache_accesses = r.Pf_cpu.Step.cache_accesses;
    cache_misses = r.Pf_cpu.Step.cache_misses;
    miss_rate_per_million = r.Pf_cpu.Step.miss_rate_per_million;
    dcache_miss_rate_pm = r.Pf_cpu.Step.dcache_miss_rate_pm;
    power = r.Pf_cpu.Step.power;
  }

let fits ?cache ?cache_cfg ?max_steps ?trace tr =
  Pf_fits.Run.run ?cache ?cache_cfg ?max_steps ?trace
    ~on_step:(fun _ ~steps:_ -> ())
    tr
