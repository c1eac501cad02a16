module A = Pf_arm.Insn
module Px = Pf_arm.Pexec
module P = Pf_cpu.Pipeline

type result = {
  fits_instructions : int;
  arm_instructions : int;
  dyn_one_to_one_pct : float;
  cycles : int;
  ipc : float;
  fetch_accesses : int;
  output : string;
  cache_accesses : int;
  cache_misses : int;
  miss_rate_per_million : float;
  dcache_miss_rate_pm : float;
  power : Pf_power.Account.report;
}

type meta = {
  cls : P.insn_class;
  reads : int;
  writes : int;
  backward : bool;
}

let meta_of_micro (m : Mapping.micro) =
  match m with
  | Mapping.M_exec insn ->
      {
        cls = Pf_cpu.Arm_run.Meta.classify insn;
        reads = A.read_mask insn;
        writes = A.write_mask insn;
        backward =
          (match insn with A.B { offset; _ } -> offset < 0 | _ -> false);
      }
  | Mapping.M_dp32 { rd; rn; op; _ } ->
      let reads = match op with A.MOV | A.MVN -> 0 | _ -> A.reg_bit rn in
      { cls = P.Alu; reads; writes = A.reg_bit rd; backward = false }
  | Mapping.M_jalr rm ->
      { cls = P.Branch; reads = A.reg_bit rm; writes = A.reg_bit A.lr;
        backward = false }
  | Mapping.M_undef _ ->
      (* never issued: dispatch raises before reaching the pipeline *)
      { cls = P.Alu; reads = 0; writes = 0; backward = false }

(* Predecode the translated stream: one micro-op per 16-bit slot, pipeline
   metadata attached (same classes and masks as [meta_of_micro]). *)
let predecode (tr : Translate.t) =
  let code_base = tr.Translate.code_base in
  Array.mapi
    (fun idx fi ->
      let pc = code_base + (2 * idx) in
      match fi.Translate.micro with
      | Mapping.M_exec insn -> Px.of_insn ~isize:2 ~pc insn
      | Mapping.M_dp32 { op; s; rd; rn; value; cond } ->
          Px.dp_value ~isize:2 ~pc ~cond ~op ~s ~rd ~rn ~value
      | Mapping.M_jalr rm -> Px.jalr ~pc ~rm
      | Mapping.M_undef why -> Px.undef ~isize:2 ~pc ~why)
    tr.Translate.insns

type engine = Pf_cpu.Arm_run.engine = Reference | Compiled

let default_cache_cfg = Pf_cache.Icache.config ~size_bytes:(16 * 1024) ()

let where = "fits.run"

let stepper ?cache ?cache_cfg ?pipeline_cfg ?power_params ?max_steps
    ?deadline ?trace (tr : Translate.t) =
  let insns = tr.Translate.insns in
  Pf_cpu.Step.create ?cache ?cache_cfg ?pipeline_cfg ?power_params
    ?max_steps ?deadline ?trace
    ~src:
      ( Array.map (fun fi -> fi.Translate.first) insns,
        Array.map (fun fi -> fi.Translate.group_len = 1) insns )
    ~isize:2 ~code_base:tr.Translate.code_base ~words:tr.Translate.words
    ~entry:tr.Translate.entry ~uops:(predecode tr)
    (Pf_arm.Exec.create tr.Translate.image)

(* A finished run's report, read off its stack and source counts; also
   publishes the D-cache miss rate into the recording, which replay
   needs. *)
let report ?trace ~steps ~src ~one ~pipe ~cache ~dcache ~account st =
  (match trace with
  | Some t ->
      Pf_cpu.Trace.set_dcache_rate t
        (Pf_cache.Icache.miss_rate_per_million dcache)
  | None -> ());
  let cycles = P.cycles pipe in
  {
    fits_instructions = steps;
    arm_instructions = src;
    dyn_one_to_one_pct =
      (if src = 0 then 0.0 else 100.0 *. float_of_int one /. float_of_int src);
    cycles;
    ipc = (if cycles = 0 then 0.0 else float_of_int src /. float_of_int cycles);
    fetch_accesses = P.fetch_accesses pipe;
    output = Pf_arm.Exec.output st;
    cache_accesses = Pf_cache.Icache.stats_accesses cache;
    cache_misses = Pf_cache.Icache.stats_misses cache;
    miss_rate_per_million = Pf_cache.Icache.miss_rate_per_million cache;
    dcache_miss_rate_pm = Pf_cache.Icache.miss_rate_per_million dcache;
    power = Pf_power.Account.report account;
  }

(* The reference oracle: dispatch on [Mapping.micro] through
   [Pf_arm.Exec.execute] every step, with its own stack and metadata,
   sharing nothing with [Pf_cpu.Step]. *)
let run_reference ?cache ~cache_cfg ?pipeline_cfg ?power_params ~max_steps
    ?deadline ?on_step ?trace (tr : Translate.t) =
  let cache =
    match cache with
    | Some c -> c
    | None -> Pf_cache.Icache.create cache_cfg
  in
  let dcache = Pf_cache.Icache.create Pf_cpu.Arm_run.dcache_cfg in
  let geometry = Pf_power.Geometry.of_config cache_cfg in
  let account = Pf_power.Account.create ?params:power_params geometry in
  let code_base = tr.Translate.code_base in
  let words = tr.Translate.words in
  let fetch_data addr = words.((addr - code_base) lsr 2) in
  let pipe =
    P.create ?config:pipeline_cfg ~dcache ~cache ~account ~fetch_data ()
  in
  let insns = tr.Translate.insns in
  let ninsns = Array.length insns in
  let st = Pf_arm.Exec.create tr.Translate.image in
  let o = Pf_arm.Exec.outcome () in
  let pc = ref tr.Translate.entry in
  let steps = ref 0 in
  let src_retired = ref 0 in
  let src_one = ref 0 in
  let metas = Array.map (fun fi -> meta_of_micro fi.Translate.micro) insns in
  while not st.Pf_arm.Exec.halted do
    if !pc = Pf_arm.Exec.halt_sentinel then st.Pf_arm.Exec.halted <- true
    else begin
      if !steps >= max_steps then
        Pf_util.Sim_error.raisef Pf_util.Sim_error.Watchdog_timeout ~where
          "FITS step budget exhausted (%d)" max_steps;
      if !steps land Pf_arm.Exec.deadline_mask = 0 then
        Pf_util.Deadline.check ~where deadline;
      let idx = (!pc - code_base) asr 1 in
      if idx < 0 || idx >= ninsns then
        Pf_util.Sim_error.raisef Pf_util.Sim_error.Decode_fault ~where
          "FITS fetch outside code at 0x%x" !pc;
      let fi = insns.(idx) in
      (match fi.Translate.micro with
      | Mapping.M_exec insn -> Pf_arm.Exec.execute ~isize:2 st ~pc:!pc insn o
      | Mapping.M_dp32 { op; s; rd; rn; value; cond } ->
          Pf_arm.Exec.execute_dp_value ~isize:2 st ~pc:!pc ~cond ~op ~s
            ~rd ~rn ~value o
      | Mapping.M_jalr rm ->
          st.Pf_arm.Exec.steps <- st.Pf_arm.Exec.steps + 1;
          st.Pf_arm.Exec.regs.(A.lr) <- !pc + 2;
          o.Pf_arm.Exec.executed <- true;
          o.Pf_arm.Exec.branch_taken <- true;
          o.Pf_arm.Exec.next_pc <- st.Pf_arm.Exec.regs.(rm) land lnot 1;
          o.Pf_arm.Exec.mem_addr <- -1;
          o.Pf_arm.Exec.mem_words <- 0
      | Mapping.M_undef why ->
          Pf_util.Sim_error.raisef Pf_util.Sim_error.Decode_fault ~where
            "corrupted decoder entry at 0x%x: %s" !pc why);
      let m = metas.(idx) in
      let taken = o.Pf_arm.Exec.branch_taken in
      let mem_addr = o.Pf_arm.Exec.mem_addr in
      let mem_words = o.Pf_arm.Exec.mem_words in
      P.issue pipe ~backward:m.backward ~mem_addr ~dmisses:(-1) ~addr:!pc
        ~size:2 ~cls:m.cls ~reads:m.reads ~writes:m.writes ~taken
        ~mem_words;
      (match trace with
      | Some t ->
          Pf_cpu.Trace.record t ~addr:!pc ~cls:m.cls ~reads:m.reads
            ~writes:m.writes ~taken ~backward:m.backward
            ~dmisses:(P.last_dcache_misses pipe) ~mem_words
      | None -> ());
      if fi.Translate.first then begin
        incr src_retired;
        if fi.Translate.group_len = 1 then incr src_one
      end;
      incr steps;
      (match on_step with None -> () | Some f -> f st ~steps:!steps);
      pc := o.Pf_arm.Exec.next_pc
    end
  done;
  report ?trace ~steps:!steps ~src:!src_retired ~one:!src_one ~pipe ~cache
    ~dcache ~account st

let run ?(engine = Compiled) ?cache ?(cache_cfg = default_cache_cfg)
    ?pipeline_cfg ?power_params ?(max_steps = 500_000_000) ?deadline ?on_step
    ?trace (tr : Translate.t) =
  match engine with
  | Reference ->
      run_reference ?cache ~cache_cfg ?pipeline_cfg ?power_params ~max_steps
        ?deadline ?on_step ?trace tr
  | Compiled ->
      let s =
        stepper ?cache ~cache_cfg ?pipeline_cfg ?power_params ~max_steps
          ?deadline ?trace tr
      in
      (match on_step with
      | None -> Pf_cpu.Cexec.run s
      | Some f ->
          (* the register-injection hook observes every retired
             instruction, so it runs on the per-instruction body *)
          let st = Pf_cpu.Step.state s in
          while not (Pf_cpu.Step.halted s) do
            let before = Pf_cpu.Step.steps s in
            Pf_cpu.Step.step s;
            let steps = Pf_cpu.Step.steps s in
            if steps > before then f st ~steps
          done);
      report ?trace ~steps:(Pf_cpu.Step.steps s) ~src:s.Pf_cpu.Step.src_retired
        ~one:s.Pf_cpu.Step.src_one ~pipe:s.Pf_cpu.Step.pipe
        ~cache:s.Pf_cpu.Step.cache ~dcache:s.Pf_cpu.Step.dcache
        ~account:s.Pf_cpu.Step.account (Pf_cpu.Step.state s)

let replay ?pipeline_cfg ?power_params ~cache_cfg ~like (tr : Translate.t)
    trace =
  let code_base = tr.Translate.code_base in
  let words = tr.Translate.words in
  let s =
    Pf_cpu.Trace.replay ?pipeline_cfg ?power_params
      ~seq:(Pf_cpu.Pipeline.seq_toggle_prefix ~words, code_base lsr 2)
      ~cache_cfg
      ~fetch_data:(fun addr -> words.((addr - code_base) lsr 2))
      trace
  in
  {
    fits_instructions = like.fits_instructions;
    arm_instructions = like.arm_instructions;
    dyn_one_to_one_pct = like.dyn_one_to_one_pct;
    cycles = s.Pf_cpu.Trace.cycles;
    ipc =
      (if s.Pf_cpu.Trace.cycles = 0 then 0.0
       else
         float_of_int like.arm_instructions
         /. float_of_int s.Pf_cpu.Trace.cycles);
    fetch_accesses = s.Pf_cpu.Trace.fetch_accesses;
    output = like.output;
    cache_accesses = s.Pf_cpu.Trace.cache_accesses;
    cache_misses = s.Pf_cpu.Trace.cache_misses;
    miss_rate_per_million = s.Pf_cpu.Trace.miss_rate_per_million;
    dcache_miss_rate_pm = s.Pf_cpu.Trace.dcache_miss_rate_pm;
    power = s.Pf_cpu.Trace.power;
  }
