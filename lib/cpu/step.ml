module Px = Pf_arm.Pexec

(* The per-instruction body of every fast run, for both ISAs.

   A stepper is one core: architectural state, predecoded micro-ops,
   private I-cache/D-cache, pipeline and power account.  [step] executes
   exactly one instruction — watchdog, deadline poll, fetch and decode
   faults, [Pipeline.issue], optional trace record and the FITS
   source-retirement counts — and nothing else in the tree repeats that
   body: the block driver ([Cexec.run]) calls it for boundary steps and
   legality fallbacks, the FITS [on_step] hook loops it, and a multicore
   machine advances its cores one [step] at a time.  The reference
   interpreters in [Arm_run] and [Pf_fits.Run] stay independent: they
   are the oracles this body is checked against. *)

type result = {
  instructions : int;
  src_instructions : int;
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

type t = {
  st : Pf_arm.Exec.t;
  o : Pf_arm.Exec.outcome;
  uops : Px.uop array;
  n : int;
  code_base : int;
  words : int array;
  isize : int;
  ishift : int;
  align_mask : int;
  where : string;
  pipe : Pipeline.t;
  cache : Pf_cache.Icache.t;
  dcache : Pf_cache.Icache.t;
  account : Pf_power.Account.t;
  max_steps : int;
  deadline : Pf_util.Deadline.t option;
  trace : Trace.t option;
  src_first : bool array;
  src_single : bool array;
  mutable pc : int;
  mutable src_retired : int;
  mutable src_one : int;
}

(* Each ISA keeps the fault origin ([t.where]) and text its runner has
   always reported. *)
let budget_fault t =
  Pf_util.Sim_error.raisef Pf_util.Sim_error.Watchdog_timeout ~where:t.where
    "%sstep budget exhausted (%d)"
    (if t.isize = 4 then "" else "FITS ")
    t.max_steps

let fetch_fault t pc =
  if t.isize = 4 then
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Decode_fault ~where:t.where
      "undecodable instruction fetch at 0x%x" pc
  else
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Decode_fault ~where:t.where
      "FITS fetch outside code at 0x%x" pc

let undef_fault t pc (u : Px.uop) =
  if t.isize = 4 then fetch_fault t pc
  else
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Decode_fault ~where:t.where
      "corrupted decoder entry at 0x%x: %s" pc u.Px.why

let default_cache_cfg = Pf_cache.Icache.config ~size_bytes:(16 * 1024) ()

let create ?cache ?(cache_cfg = default_cache_cfg) ?pipeline_cfg
    ?(max_steps = 500_000_000) ?deadline ?trace ?src ~isize ~code_base
    ~words ~entry ~uops st =
  if isize <> 2 && isize <> 4 then
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config ~where:"cpu.step"
      "isize must be 2 (FITS) or 4 (ARM), got %d" isize;
  let cache =
    match cache with
    | Some c -> c
    | None -> Pf_cache.Icache.create cache_cfg
  in
  let dcache = Pf_cache.Icache.create Trace.dcache_cfg in
  let account =
    Pf_power.Account.create (Pf_power.Geometry.of_config cache_cfg)
  in
  let fetch_data addr = words.((addr - code_base) lsr 2) in
  let pipe =
    Pipeline.create ?config:pipeline_cfg ~dcache ~cache ~account ~fetch_data
      ()
  in
  let src_first, src_single =
    match src with
    | Some (f, s) ->
        if Array.length f <> Array.length uops
           || Array.length s <> Array.length uops
        then
          Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config
            ~where:"cpu.step"
            "src metadata length %d/%d does not match %d micro-op slots"
            (Array.length f) (Array.length s) (Array.length uops);
        (f, s)
    | None -> ([||], [||])
  in
  {
    st;
    o = Pf_arm.Exec.outcome ();
    uops;
    n = Array.length uops;
    code_base;
    words;
    isize;
    ishift = (if isize = 4 then 2 else 1);
    align_mask = isize - 1;
    where = (if isize = 4 then "arm.exec" else "fits.run");
    pipe;
    cache;
    dcache;
    account;
    max_steps;
    deadline;
    trace;
    src_first;
    src_single;
    pc = entry;
    src_retired = 0;
    src_one = 0;
  }

let of_image ?cache ?cache_cfg ?max_steps ?deadline ?trace
    (image : Pf_arm.Image.t) =
  let p = Px.compile image in
  create ?cache ?cache_cfg ?max_steps ?deadline ?trace ~isize:4
    ~code_base:p.Px.code_base ~words:image.Pf_arm.Image.words
    ~entry:p.Px.entry ~uops:p.Px.uops (Pf_arm.Exec.create image)

let halted t = t.st.Pf_arm.Exec.halted
let steps t = t.st.Pf_arm.Exec.steps
let state t = t.st
let dcache t = t.dcache

let step t =
  let st = t.st in
  if not st.Pf_arm.Exec.halted then begin
    let pc = t.pc in
    if pc = Pf_arm.Exec.halt_sentinel then begin
      st.Pf_arm.Exec.halted <- true;
      (* don't let [stored_addr] report the previous instruction's store *)
      t.o.Pf_arm.Exec.mem_addr <- -1
    end
    else begin
      let steps = st.Pf_arm.Exec.steps in
      if steps >= t.max_steps then budget_fault t;
      if steps land Pf_arm.Exec.deadline_mask = 0 then
        Pf_util.Deadline.check ~where:t.where t.deadline;
      let off = pc - t.code_base in
      let idx = off lsr t.ishift in
      if off < 0 || off land t.align_mask <> 0 || idx >= t.n then
        fetch_fault t pc;
      let u = t.uops.(idx) in
      if u.Px.code = Px.code_undef then undef_fault t pc u;
      let o = t.o in
      Px.exec st o u;
      t.pc <- o.Pf_arm.Exec.next_pc;
      (* an ARM core keeps its pc in r15 as the reference interpreter
         does; a FITS core leaves r15 alone (r15 reads go through the
         precomputed [pc8]) *)
      if t.isize = 4 then st.Pf_arm.Exec.regs.(15) <- o.Pf_arm.Exec.next_pc;
      let cls = Trace.cls_of_code u.Px.cls in
      let taken = o.Pf_arm.Exec.branch_taken in
      let mem_words = o.Pf_arm.Exec.mem_words in
      Pipeline.issue t.pipe ~backward:u.Px.backward
        ~mem_addr:o.Pf_arm.Exec.mem_addr ~dmisses:(-1) ~addr:pc ~size:t.isize
        ~cls ~reads:u.Px.reads ~writes:u.Px.writes ~taken ~mem_words;
      (match t.trace with
      | None -> ()
      | Some tr ->
          Trace.record tr ~addr:pc ~cls ~reads:u.Px.reads ~writes:u.Px.writes
            ~taken ~backward:u.Px.backward
            ~dmisses:(Pipeline.last_dcache_misses t.pipe)
            ~mem_words);
      if Array.length t.src_first > 0 && t.src_first.(idx) then begin
        t.src_retired <- t.src_retired + 1;
        if t.src_single.(idx) then t.src_one <- t.src_one + 1
      end
    end
  end

let stored_addr t =
  let o = t.o in
  if o.Pf_arm.Exec.mem_addr >= 0 && not o.Pf_arm.Exec.mem_is_load then
    o.Pf_arm.Exec.mem_addr
  else -1

let stored_words t =
  if stored_addr t < 0 then 0 else max 1 t.o.Pf_arm.Exec.mem_words

let result t =
  let cycles = Pipeline.cycles t.pipe in
  let src =
    if Array.length t.src_first > 0 then t.src_retired
    else Pipeline.instructions t.pipe
  in
  (match t.trace with
  | Some tr ->
      Trace.set_dcache_rate tr
        (Pf_cache.Icache.miss_rate_per_million t.dcache)
  | None -> ());
  {
    instructions = Pipeline.instructions t.pipe;
    src_instructions = src;
    cycles;
    ipc = (if cycles = 0 then 0.0 else float_of_int src /. float_of_int cycles);
    fetch_accesses = Pipeline.fetch_accesses t.pipe;
    output = Pf_arm.Exec.output t.st;
    cache_accesses = Pf_cache.Icache.stats_accesses t.cache;
    cache_misses = Pf_cache.Icache.stats_misses t.cache;
    miss_rate_per_million = Pf_cache.Icache.miss_rate_per_million t.cache;
    dcache_miss_rate_pm = Pf_cache.Icache.miss_rate_per_million t.dcache;
    power = Pf_power.Account.report t.account;
  }
