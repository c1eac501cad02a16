module A = Pf_arm.Insn

module Meta = struct
  let classify (i : A.t) =
    match i with
    | A.B _ | A.Bx _ -> Pipeline.Branch
    | A.Mul _ -> Pipeline.Mul
    | A.Mem { load = true; _ } | A.Pop _ -> Pipeline.Load
    | A.Mem { load = false; _ } | A.Push _ -> Pipeline.Store
    | A.Swi _ -> Pipeline.System
    | A.Dp _ -> if A.writes_pc i then Pipeline.Branch else Pipeline.Alu

  let read_mask = A.read_mask
  let write_mask = A.write_mask
end

type meta = {
  cls : Pipeline.insn_class;
  reads : int;
  writes : int;
  backward : bool;   (* direct backward branch, for the static predictor *)
}

let build_meta (image : Pf_arm.Image.t) =
  Array.map
    (function
      | Some i ->
          Some
            { cls = Meta.classify i;
              reads = Meta.read_mask i;
              writes = Meta.write_mask i;
              backward =
                (match i with A.B { offset; _ } -> offset < 0 | _ -> false) }
      | None -> None)
    image.Pf_arm.Image.insns

type engine = Reference | Compiled

type result = {
  instructions : int;
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

let default_cache_cfg = Pf_cache.Icache.config ~size_bytes:(16 * 1024) ()

let dcache_cfg = Trace.dcache_cfg

(* A finished run's report, read off its stack; also publishes the
   D-cache miss rate into the recording, which replay needs. *)
let report ?trace ~pipe ~cache ~dcache ~account st =
  (match trace with
  | Some t ->
      Trace.set_dcache_rate t (Pf_cache.Icache.miss_rate_per_million dcache)
  | None -> ());
  {
    instructions = Pipeline.instructions pipe;
    cycles = Pipeline.cycles pipe;
    ipc = Pipeline.ipc pipe;
    fetch_accesses = Pipeline.fetch_accesses pipe;
    output = Pf_arm.Exec.output st;
    cache_accesses = Pf_cache.Icache.stats_accesses cache;
    cache_misses = Pf_cache.Icache.stats_misses cache;
    miss_rate_per_million = Pf_cache.Icache.miss_rate_per_million cache;
    dcache_miss_rate_pm = Pf_cache.Icache.miss_rate_per_million dcache;
    power = Pf_power.Account.report account;
  }

(* The reference oracle: [Pf_arm.Exec.run] re-decoding every dynamic step,
   with its own stack and metadata, sharing nothing with [Step]. *)
let run_reference ?cache ~cache_cfg ?pipeline_cfg ?power_params ?max_steps
    ?deadline ?trace (image : Pf_arm.Image.t) =
  let cache =
    match cache with
    | Some c -> c
    | None -> Pf_cache.Icache.create cache_cfg
  in
  let dcache = Pf_cache.Icache.create dcache_cfg in
  let geometry = Pf_power.Geometry.of_config cache_cfg in
  let account = Pf_power.Account.create ?params:power_params geometry in
  let fetch_data addr = Pf_arm.Image.word_at image addr in
  let pipe =
    Pipeline.create ?config:pipeline_cfg ~dcache ~cache ~account ~fetch_data
      ()
  in
  let st = Pf_arm.Exec.create image in
  let metas = build_meta image in
  let code_base = image.Pf_arm.Image.code_base in
  Pf_arm.Exec.run ?max_steps ?deadline st ~on_step:(fun _ ~pc insn o ->
      let m =
        match metas.((pc - code_base) lsr 2) with
        | Some m -> m
        | None ->
            Pf_util.Sim_error.raisef Pf_util.Sim_error.Internal
              ~where:"cpu.arm_run" "no metadata for pc 0x%x" pc
      in
      ignore insn;
      let taken = o.Pf_arm.Exec.branch_taken in
      let mem_addr = o.Pf_arm.Exec.mem_addr in
      let mem_words = o.Pf_arm.Exec.mem_words in
      Pipeline.issue pipe ~backward:m.backward ~mem_addr ~dmisses:(-1)
        ~addr:pc ~size:4 ~cls:m.cls ~reads:m.reads ~writes:m.writes
        ~taken ~mem_words;
      match trace with
      | Some t ->
          Trace.record t ~addr:pc ~cls:m.cls ~reads:m.reads
            ~writes:m.writes ~taken ~backward:m.backward
            ~dmisses:(Pipeline.last_dcache_misses pipe)
            ~mem_words
      | None -> ());
  report ?trace ~pipe ~cache ~dcache ~account st

let run ?(engine = Compiled) ?cache ?(cache_cfg = default_cache_cfg)
    ?pipeline_cfg ?power_params ?max_steps ?deadline ?trace image =
  match engine with
  | Reference ->
      run_reference ?cache ~cache_cfg ?pipeline_cfg ?power_params ?max_steps
        ?deadline ?trace image
  | Compiled ->
      let s =
        Step.of_image ?cache ~cache_cfg ?pipeline_cfg ?power_params
          ?max_steps ?deadline ?trace image
      in
      Cexec.run s;
      report ?trace ~pipe:s.Step.pipe ~cache:s.Step.cache ~dcache:s.Step.dcache
        ~account:s.Step.account s.Step.st

let replay ?pipeline_cfg ?power_params ~cache_cfg ~output
    (image : Pf_arm.Image.t) trace =
  let s =
    Trace.replay ?pipeline_cfg ?power_params
      ~seq:
        ( Pipeline.seq_toggle_prefix ~words:image.Pf_arm.Image.words,
          image.Pf_arm.Image.code_base lsr 2 )
      ~cache_cfg
      ~fetch_data:(fun addr -> Pf_arm.Image.word_at image addr)
      trace
  in
  {
    instructions = s.Trace.instructions;
    cycles = s.Trace.cycles;
    ipc =
      (if s.Trace.cycles = 0 then 0.0
       else float_of_int s.Trace.instructions /. float_of_int s.Trace.cycles);
    fetch_accesses = s.Trace.fetch_accesses;
    output;
    cache_accesses = s.Trace.cache_accesses;
    cache_misses = s.Trace.cache_misses;
    miss_rate_per_million = s.Trace.miss_rate_per_million;
    dcache_miss_rate_pm = s.Trace.dcache_miss_rate_pm;
    power = s.Trace.power;
  }
