type insn_class = Alu | Mul | Load | Store | Branch | System

type predictor = No_prediction | Btfn

type config = {
  dual_issue : bool;
  miss_penalty : int;
  branch_penalty : int;
  load_use_bubble : int;
  mul_extra : int;
  ldm_word_extra : int;
  fetch_buffer : bool;
  predictor : predictor;
}

let sa1100 =
  {
    dual_issue = true;
    miss_penalty = 24;
    branch_penalty = 2;
    load_use_bubble = 1;
    mul_extra = 2;
    ldm_word_extra = 1;
    fetch_buffer = true;
    predictor = Btfn;
  }

type t = {
  cfg : config;
  cache : Pf_cache.Icache.t;
  dcache : Pf_cache.Icache.t option;
  account : Pf_power.Account.t;
  fetch_data : int -> int;
  mutable cycles : int;
  mutable instrs : int;
  mutable fetches : int;
  mutable last_fetch_addr : int;       (* aligned word address, -1 = none *)
  mutable last_fetch_line : int;       (* I-cache line of that word, -1 = none *)
  mutable pair_slot_free : bool;       (* current cycle can take a 2nd insn *)
  mutable slot_writes : int;           (* writes of the 1st insn this cycle *)
  mutable slot_mem : bool;
  mutable prev_load_writes : int;      (* writes of the last load *)
  mutable last_dmisses : int;          (* D-cache misses of the last issue *)
  (* scratch accumulators for the span kernels; zero outside a span call.
     They live on [t] rather than in locals so the kernels allocate
     nothing: without flambda, a [ref] captured by a flush closure is a
     heap cell, and at the measured 1.5-2.7 events per ALU span that
     allocation dominated the per-event savings. *)
  mutable sp_acc : int;
  mutable sp_tog : int;
  mutable sp_ref : int;
  mutable sp_cyc : int;
  mutable sp_ins : int;
  mutable sp_room : int;
  mutable sp_i : int;
}

let create ?(config = sa1100) ?dcache ~cache ~account ~fetch_data () =
  {
    cfg = config;
    cache;
    dcache;
    account;
    fetch_data;
    cycles = 0;
    instrs = 0;
    fetches = 0;
    last_fetch_addr = -1;
    last_fetch_line = -1;
    pair_slot_free = false;
    slot_writes = 0;
    slot_mem = false;
    prev_load_writes = 0;
    last_dmisses = 0;
    sp_acc = 0;
    sp_tog = 0;
    sp_ref = 0;
    sp_cyc = 0;
    sp_ins = 0;
    sp_room = 0;
    sp_i = 0;
  }

let spend t n =
  if n > 0 then begin
    t.cycles <- t.cycles + n;
    Pf_power.Account.on_cycles t.account n
  end

(* The back-end penalty arithmetic is exposed as pure functions of the
   config and the (geometry-invariant) event fields: the all-geometry
   sweep kernel (Pf_dse.Sweep) recomputes per-window cycle counts from
   trace events alone and must charge exactly what [issue] charges. *)

let[@inline] mispredicted cfg ~cls ~taken ~backward =
  (* backward-taken/forward-not-taken static prediction: a correctly
     predicted direct branch pays no redirect (the paper leans on MiBench
     branches being "easily predictable"); indirect branches (backward =
     false, taken) always pay *)
  match cfg.predictor with
  | No_prediction -> taken
  | Btfn -> ( match cls with Branch -> taken <> backward | _ -> taken)

let[@inline] extra_cycles cfg ~cls ~taken ~backward ~mem_words =
  (match cls with Mul -> cfg.mul_extra | _ -> 0)
  + (if mem_words > 1 then (mem_words - 1) * cfg.ldm_word_extra else 0)
  + if mispredicted cfg ~cls ~taken ~backward then cfg.branch_penalty else 0

(* One I-cache access for the word at [word_addr], returning the miss
   stall.  Sequential code stays on one cache line for many fetches; when
   the previous fetch touched the same line the access is routed through
   [Icache.access_seq] (guaranteed way-0 hit, no way search / MRU rotate /
   index toggle) — bit-identical counters, a fraction of the cost.  The
   line gate is deliberately {e not} cleared on taken branches: the
   redirect invalidates the fetch-buffer word, but the line it fetched
   from is still the cache's most recent access, so a branch targeting the
   same line (tight loops) keeps the fast path. *)
let[@inline] fetch_word t word_addr =
  let data = t.fetch_data word_addr in
  let line = Pf_cache.Icache.line_of_addr t.cache ~addr:word_addr in
  let r =
    if line = t.last_fetch_line then
      Pf_cache.Icache.access_seq t.cache ~addr:word_addr ~data
    else Pf_cache.Icache.access_fast t.cache ~addr:word_addr ~data
  in
  t.last_fetch_line <- line;
  Pf_power.Account.on_access t.account ~toggles:(r lsr 16)
    ~refilled_words:((r lsr 1) land 0x7FFF);
  t.fetches <- t.fetches + 1;
  t.last_fetch_addr <- word_addr;
  if r land 1 = 0 then t.cfg.miss_penalty else 0

(* Count misses of a [words]-word D-cache walk starting at [base].
   Top-level and fully applied so the per-word loop carries its counter in
   a register instead of a heap-allocated [ref]. *)
let rec dcache_walk d base w words acc =
  if w >= words then acc
  else
    let hit =
      Pf_cache.Icache.access_count d ~addr:((base + (4 * w)) land lnot 3)
    in
    dcache_walk d base (w + 1) words (if hit then acc else acc + 1)

let issue t ~backward ~mem_addr ~dmisses ~addr ~size ~cls ~reads ~writes
    ~taken ~mem_words =
  t.instrs <- t.instrs + 1;
  (* fetch: one I-cache access per new 32-bit word *)
  let word_addr = addr land lnot 3 in
  let fetch_stall =
    if word_addr <> t.last_fetch_addr || not t.cfg.fetch_buffer then
      fetch_word t word_addr
    else 0
  in
  ignore size;
  (* NB: class tests are pattern matches, not [=] — polymorphic equality
     on a variant is an out-of-line [caml_equal] call, and issue runs once
     per dynamic instruction *)
  let is_mem = match cls with Load | Store -> true | _ -> false in
  let is_branch = match cls with Branch -> true | _ -> false in
  let is_mul = match cls with Mul -> true | _ -> false in
  let is_load = match cls with Load -> true | _ -> false in
  (* data side: the D-cache is identical in every configuration (S5: only
     the I-cache varies); misses stall like instruction refills.  A replay
     passes the recorded miss count via [dmisses] instead of re-simulating
     the D-cache — same stream, same misses, by construction. *)
  let dm =
    if dmisses >= 0 then dmisses
    else
      match t.dcache with
      | Some d when is_mem && mem_addr >= 0 -> dcache_walk d mem_addr 0 mem_words 0
      | Some _ | None -> 0
  in
  t.last_dmisses <- dm;
  let stall =
    if dm > 0 then fetch_stall + (dm * t.cfg.miss_penalty) else fetch_stall
  in
  (* load-use bubble against the previous instruction *)
  let bubble =
    if t.prev_load_writes land reads <> 0 then t.cfg.load_use_bubble else 0
  in
  let can_pair =
    t.cfg.dual_issue && t.pair_slot_free && stall = 0 && bubble = 0
    && reads land t.slot_writes = 0
    && (not (is_mem && t.slot_mem))
    && not is_branch
  in
  if can_pair then begin
    (* issues in the already-open cycle *)
    t.pair_slot_free <- false;
    spend t stall
  end
  else begin
    spend t (1 + stall + bubble);
    t.pair_slot_free <- t.cfg.dual_issue && (not is_branch) && not is_mul;
    t.slot_writes <- writes;
    t.slot_mem <- is_mem
  end;
  (* back-end penalties close the pairing window *)
  let extra = extra_cycles t.cfg ~cls ~taken ~backward ~mem_words in
  if extra > 0 then begin
    spend t extra;
    t.pair_slot_free <- false
  end;
  if taken then
    (* redirect: the fetch buffer does not survive a taken branch *)
    t.last_fetch_addr <- -1;
  t.prev_load_writes <- (if is_load then writes else 0);
  Pf_power.Account.on_retire t.account

(* Span-batched [issue] for ALU-shaped events: [n] consecutive events
   packed two ints each into [ev] at [pos] — slot 0 the fetch address,
   slot 1 a meta word whose bits 11-27 are the read mask and bits 28-44
   the write mask (the [Trace] packed-event layout with every dynamic
   field zero; the two modules share the layout within this library).
   Every event is a non-memory, non-branch Alu instruction with no
   D-cache misses ([cls = Alu], [taken = backward = false],
   [mem_words = 0], [dmisses = 0], [mem_addr = -1]), so every branch of
   [issue] is resolved under those constants — no mul/ldm/branch extras,
   no redirect, no D-cache walk — leaving the fetch gate, the load-use
   bubble and the pairing state machine.  Equivalent to calling [issue]
   once per event, but the pipeline/pairing state lives in locals for
   the whole span and the power accounting is flushed in
   peak-window-sized batches ([Account.on_block]) instead of three calls
   per instruction.  Cache counters stay exact per access — every fetch
   still goes through [Icache.access_seq]/[access_fast] — so miss stalls
   and toggle streams are untouched.  The trace replayer and the
   block-compiled engines feed their ALU runs through here; the
   three-way differential and replay-equivalence tests pin the
   bit-identity. *)
let flush_span t =
  Pf_power.Account.on_block t.account ~accesses:t.sp_acc ~toggles:t.sp_tog
    ~refilled_words:t.sp_ref ~cycles:t.sp_cyc ~insns:t.sp_ins;
  t.cycles <- t.cycles + t.sp_cyc;
  t.sp_acc <- 0;
  t.sp_tog <- 0;
  t.sp_ref <- 0;
  t.sp_cyc <- 0;
  t.sp_ins <- 0;
  t.sp_room <- Pf_power.Account.window_room t.account

let issue_alu_span t ~ev ~pos ~n =
  let cfg = t.cfg in
  let dual = cfg.dual_issue in
  let gate = cfg.fetch_buffer in
  t.sp_room <- Pf_power.Account.window_room t.account;
  for k = 0 to n - 1 do
    let i = pos + (2 * k) in
    let addr = Array.unsafe_get ev i in
    let meta = Array.unsafe_get ev (i + 1) in
    let word_addr = addr land lnot 3 in
    let stall =
      if word_addr <> t.last_fetch_addr || not gate then begin
        let data = t.fetch_data word_addr in
        let line = Pf_cache.Icache.line_of_addr t.cache ~addr:word_addr in
        let r =
          if line = t.last_fetch_line then
            Pf_cache.Icache.access_seq t.cache ~addr:word_addr ~data
          else Pf_cache.Icache.access_fast t.cache ~addr:word_addr ~data
        in
        t.last_fetch_line <- line;
        t.last_fetch_addr <- word_addr;
        t.fetches <- t.fetches + 1;
        t.sp_acc <- t.sp_acc + 1;
        t.sp_tog <- t.sp_tog + (r lsr 16);
        t.sp_ref <- t.sp_ref + ((r lsr 1) land 0x7FFF);
        if r land 1 = 0 then cfg.miss_penalty else 0
      end
      else 0
    in
    let reads = (meta lsr 11) land 0x1FFFF in
    let bubble =
      if t.prev_load_writes land reads <> 0 then cfg.load_use_bubble else 0
    in
    if
      dual && t.pair_slot_free && stall = 0 && bubble = 0
      && reads land t.slot_writes = 0
    then t.pair_slot_free <- false
    else begin
      t.sp_cyc <- t.sp_cyc + 1 + stall + bubble;
      t.pair_slot_free <- dual;
      t.slot_writes <- (meta lsr 28) land 0x1FFFF;
      t.slot_mem <- false
    end;
    t.prev_load_writes <- 0;
    t.sp_ins <- t.sp_ins + 1;
    if t.sp_ins = t.sp_room then flush_span t
  done;
  if t.sp_ins > 0 then flush_span t;
  t.instrs <- t.instrs + n;
  if n > 0 then t.last_dmisses <- 0

(* Per-word output-bus toggle prefix over a code segment: [st.(w)] is the
   Hamming sum of transitions words.(0)->words.(1)->...->words.(w), so a
   sequential fetch of words (a, b] charges [st.(b) - st.(a)].  The first
   word of any run is excluded — its toggle depends on whatever the bus
   last carried and is charged at runtime. *)
let seq_toggle_prefix ~words =
  let n = Array.length words in
  let st = Array.make (max n 1) 0 in
  for w = 1 to n - 1 do
    st.(w) <- st.(w - 1) + Pf_util.Bits.hamming words.(w - 1) words.(w)
  done;
  st

(* Line-batched [issue_alu_span] for spans whose fetch addresses are
   STRICTLY SEQUENTIAL (each event [size] bytes after the previous — true
   of any straight-line run of retirements, which is exactly what an ALU
   span is).  The first access of every cache line runs through the real
   per-access path (misses, refills and index toggles all exact);
   the remaining words of that line are then guaranteed way-0 hits with
   zero index toggles and an unchanged recency front, so they collapse
   into one [Icache.access_seq_run] whose output-bus toggle sum comes from
   the precomputed prefix [seq_tog] ([seq_toggle_prefix] of the code
   words, index-based at [wbase] = code_base/4).  Batches are additionally
   cut at peak-window boundaries so every power window closes on exactly
   the same retirement, with exactly the same window sums, as the
   per-access path.  Falls back to the per-event span when the fetch
   buffer is disabled (every instruction re-accesses the cache) or tag
   flips are pending (their due times read the access counter). *)
let issue_alu_seq_span t ~ev ~pos ~n ~size ~seq_tog ~wbase =
  if (not t.cfg.fetch_buffer) || Pf_cache.Icache.has_pending_flips t.cache
  then issue_alu_span t ~ev ~pos ~n
  else begin
    let cfg = t.cfg in
    let dual = cfg.dual_issue in
    let lmask = Pf_cache.Icache.block_bytes t.cache - 1 in
    t.sp_room <- Pf_power.Account.window_room t.account;
    t.sp_i <- 0;
    while t.sp_i < n do
      (* head event: may fetch (line-crossing, miss-capable) or reuse the
         fetch buffer; runs the exact per-access path *)
      let p = pos + (2 * t.sp_i) in
      let addr = Array.unsafe_get ev p in
      let meta = Array.unsafe_get ev (p + 1) in
      let word_addr = addr land lnot 3 in
      let stall =
        if word_addr <> t.last_fetch_addr then begin
          let data = t.fetch_data word_addr in
          let line = Pf_cache.Icache.line_of_addr t.cache ~addr:word_addr in
          let r =
            if line = t.last_fetch_line then
              Pf_cache.Icache.access_seq t.cache ~addr:word_addr ~data
            else Pf_cache.Icache.access_fast t.cache ~addr:word_addr ~data
          in
          t.last_fetch_line <- line;
          t.last_fetch_addr <- word_addr;
          t.fetches <- t.fetches + 1;
          t.sp_acc <- t.sp_acc + 1;
          t.sp_tog <- t.sp_tog + (r lsr 16);
          t.sp_ref <- t.sp_ref + ((r lsr 1) land 0x7FFF);
          if r land 1 = 0 then cfg.miss_penalty else 0
        end
        else 0
      in
      let reads = (meta lsr 11) land 0x1FFFF in
      let bubble =
        if t.prev_load_writes land reads <> 0 then cfg.load_use_bubble
        else 0
      in
      (if
         dual && t.pair_slot_free && stall = 0 && bubble = 0
         && reads land t.slot_writes = 0
       then t.pair_slot_free <- false
       else begin
         t.sp_cyc <- t.sp_cyc + 1 + stall + bubble;
         t.pair_slot_free <- dual;
         t.slot_writes <- (meta lsr 28) land 0x1FFFF;
         t.slot_mem <- false
       end);
      t.prev_load_writes <- 0;
      t.sp_ins <- t.sp_ins + 1;
      if t.sp_ins = t.sp_room then flush_span t;
      t.sp_i <- t.sp_i + 1;
      (* tail events within the head's (now resident, front-of-recency)
         line: guaranteed hits, zero stall, zero bubble
         ([prev_load_writes] is 0 past the head), capped by the open power
         window; the line never changes so [last_fetch_line] stands *)
      if t.sp_i < n then begin
        let line_end = t.last_fetch_addr lor lmask in
        let a1 = addr + size in
        if a1 <= line_end then begin
          let cnt =
            min
              (min (((line_end - a1) / size) + 1) (t.sp_room - t.sp_ins))
              (n - t.sp_i)
          in
          let last = a1 + ((cnt - 1) * size) in
          let wprev = t.last_fetch_addr lsr 2 in
          let wlast = last lsr 2 in
          let nacc = wlast - wprev in
          if nacc > 0 then begin
            let tog =
              Array.unsafe_get seq_tog (wlast - wbase)
              - Array.unsafe_get seq_tog (wprev - wbase)
            in
            Pf_cache.Icache.access_seq_run t.cache ~naccesses:nacc
              ~toggles:tog ~last_out:(t.fetch_data (last land lnot 3));
            t.fetches <- t.fetches + nacc;
            t.sp_acc <- t.sp_acc + nacc;
            t.sp_tog <- t.sp_tog + tog;
            t.last_fetch_addr <- last land lnot 3
          end;
          let q0 = p + 3 in
          for z = 0 to cnt - 1 do
            let m = Array.unsafe_get ev (q0 + (2 * z)) in
            let reads = (m lsr 11) land 0x1FFFF in
            if dual && t.pair_slot_free && reads land t.slot_writes = 0 then
              t.pair_slot_free <- false
            else begin
              t.sp_cyc <- t.sp_cyc + 1;
              t.pair_slot_free <- dual;
              t.slot_writes <- (m lsr 28) land 0x1FFFF;
              t.slot_mem <- false
            end
          done;
          t.sp_ins <- t.sp_ins + cnt;
          if t.sp_ins = t.sp_room then flush_span t;
          t.sp_i <- t.sp_i + cnt
        end
      end
    done;
    if t.sp_ins > 0 then flush_span t;
    t.instrs <- t.instrs + n;
    if n > 0 then t.last_dmisses <- 0
  end

let cycles t = t.cycles
let instructions t = t.instrs
let last_dcache_misses t = t.last_dmisses
let ipc t = if t.cycles = 0 then 0.0 else float_of_int t.instrs /. float_of_int t.cycles
let fetch_accesses t = t.fetches
