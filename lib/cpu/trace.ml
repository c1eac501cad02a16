(* Two ints per event, stored in fixed-size chunks so recording never
   copies what is already written (a doubling flat array would).

     slot 0: fetch pc
     slot 1: packed meta — cls(3) | taken(1) | backward(1) | mem_words(6)
             | reads(17) | writes(17) | dmisses(6)

   Register masks are 17 bits wide: r0-r14 plus the over-provisioned FITS
   scratch register (index 16).  [dmisses] is the D-cache miss count the
   recording run observed for this event: the 8 KB D-cache is identical
   in every configuration, so a replay charges the recorded stalls
   instead of re-simulating the data side (and the trace needs no memory
   addresses at all).

   Block-granular events: the block-compiled engines emit a fused ALU run
   as ONE two-int event — slot 0 is [-1 - tid] (negative, so per-insn
   events, whose slot 0 is a non-negative pc, are unambiguous), where
   [tid] indexes a pairs table registered once per static block via
   [register_pairs]; slot 1 packs the run's offset in that table (low 32
   bits) and its event count (high bits).  Every consumer ([iter],
   [replay], and through them the DSE sweep) expands a block event to the
   identical per-instruction (pc, meta) stream the table holds — the
   compression is invisible outside this module, but a recording writes
   and a replay reads two ints per RUN instead of two per instruction,
   and the tables stay cache-hot across the block's executions. *)

let ints_per_event = 2

type t = {
  isize : int;
  chunk_events : int;
  mutable chunks : int array array;
  mutable nchunks : int;      (* chunks in use *)
  mutable cur : int array;    (* == chunks.(nchunks - 1) *)
  mutable cur_used : int;     (* ints used in [cur] *)
  mutable len : int;          (* total events *)
  mutable dcache_rate_pm : float;
      (* the recording run's D-cache miss rate, carried to replays *)
  mutable ptabs : int array array;  (* registered block pairs tables *)
  mutable nptabs : int;
}

let create ?(chunk_events = 65536) ~isize () =
  if chunk_events <= 0 then
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config
      ~where:"cpu.trace" "chunk_events must be positive (got %d)" chunk_events;
  let first = Array.make (chunk_events * ints_per_event) 0 in
  {
    isize;
    chunk_events;
    chunks = [| first |];
    nchunks = 1;
    cur = first;
    cur_used = 0;
    len = 0;
    dcache_rate_pm = 0.0;
    ptabs = [||];
    nptabs = 0;
  }

let isize t = t.isize
let length t = t.len
let set_dcache_rate t pm = t.dcache_rate_pm <- pm
let dcache_rate t = t.dcache_rate_pm

(* Packed-meta field decoders, shared by [replay] and by trace-level
   evaluators (the all-geometry DSE sweep) so both read the exact same
   event fields.  Layout documented at the top of this file. *)
let[@inline] meta_cls_code m = m land 0x7
let[@inline] meta_taken m = m land 0x8 <> 0
let[@inline] meta_backward m = m land 0x10 <> 0
let[@inline] meta_mem_words m = (m lsr 5) land 0x3F
let[@inline] meta_reads m = (m lsr 11) land 0x1FFFF
let[@inline] meta_writes m = (m lsr 28) land 0x1FFFF
let[@inline] meta_dmisses m = (m lsr 45) land 0x3F

let[@inline] span_pos w = w land 0xFFFFFFFF
let[@inline] span_n w = w lsr 32

let iter t f =
  let full = t.chunk_events * ints_per_event in
  for ci = 0 to t.nchunks - 1 do
    let chunk = t.chunks.(ci) in
    let used = if ci = t.nchunks - 1 then t.cur_used else full in
    let i = ref 0 in
    while !i < used do
      let a = chunk.(!i) in
      if a >= 0 then f a chunk.(!i + 1)
      else begin
        (* block event: expand the referenced run of table pairs *)
        let tab = t.ptabs.(-1 - a) in
        let w = chunk.(!i + 1) in
        let pos = span_pos w and n = span_n w in
        for k = 0 to n - 1 do
          f tab.(pos + (2 * k)) tab.(pos + (2 * k) + 1)
        done
      end;
      i := !i + 2
    done
  done

(* Per-slot execution counts of the recorded stream.  The trace is the
   executed instruction sequence, so for an ARM recording this equals
   what a dedicated counting run ([Synthesis.dyn_counts_of_run]) produces
   — a recording derives its synthesis profile from the trace it just
   recorded instead of executing the program again. *)
let exec_counts t ~base ~n =
  let counts = Array.make n 0 in
  let shift = if t.isize = 4 then 2 else 1 in
  iter t (fun addr _ ->
      let w = (addr - base) asr shift in
      if w >= 0 && w < n then counts.(w) <- counts.(w) + 1);
  counts

let cls_code : Pipeline.insn_class -> int = function
  | Pipeline.Alu -> 0
  | Pipeline.Mul -> 1
  | Pipeline.Load -> 2
  | Pipeline.Store -> 3
  | Pipeline.Branch -> 4
  | Pipeline.System -> 5

let cls_of_code = function
  | 0 -> Pipeline.Alu
  | 1 -> Pipeline.Mul
  | 2 -> Pipeline.Load
  | 3 -> Pipeline.Store
  | 4 -> Pipeline.Branch
  | _ -> Pipeline.System

let grow t =
  if t.nchunks = Array.length t.chunks then begin
    let spine = Array.make (2 * t.nchunks) [||] in
    Array.blit t.chunks 0 spine 0 t.nchunks;
    t.chunks <- spine
  end;
  let c = Array.make (t.chunk_events * ints_per_event) 0 in
  t.chunks.(t.nchunks) <- c;
  t.nchunks <- t.nchunks + 1;
  t.cur <- c;
  t.cur_used <- 0

let record t ~addr ~cls ~reads ~writes ~taken ~backward ~dmisses ~mem_words =
  if t.cur_used = t.chunk_events * ints_per_event then grow t;
  let meta =
    cls_code cls
    lor (Bool.to_int taken lsl 3)
    lor (Bool.to_int backward lsl 4)
    lor (mem_words lsl 5)
    lor (reads lsl 11)
    lor (writes lsl 28)
    lor (dmisses lsl 45)
  in
  let i = t.cur_used in
  t.cur.(i) <- addr;
  t.cur.(i + 1) <- meta;
  t.cur_used <- i + 2;
  t.len <- t.len + 1

(* Pre-packed recording for the block-compiled engine: the static part of
   an event's meta word is a per-instruction constant computed once at
   block-compile time; the runtime patches in the dynamic fields and
   appends.  [record t ...] and [record_packed t ~meta:(static_meta ...
   lor dynamic bits)] produce identical words by construction. *)

let[@inline] static_meta ~cls_code ~backward ~reads ~writes =
  cls_code
  lor (Bool.to_int backward lsl 4)
  lor (reads lsl 11)
  lor (writes lsl 28)

let[@inline] dynamic_meta ~taken ~mem_words ~dmisses =
  (Bool.to_int taken lsl 3) lor (mem_words lsl 5) lor (dmisses lsl 45)

let record_packed t ~addr ~meta =
  if t.cur_used = t.chunk_events * ints_per_event then grow t;
  let i = t.cur_used in
  t.cur.(i) <- addr;
  t.cur.(i + 1) <- meta;
  t.cur_used <- i + 2;
  t.len <- t.len + 1

(* Block-granular recording: the compiled engines register each static
   block's precomputed (addr, meta) pairs table once, then append a fused
   ALU run as a single two-int reference into it (encoding documented at
   the top of this file).  [iter] and [replay] expand the reference to
   the identical per-instruction stream [n] [record_packed] calls would
   have produced. *)
let register_pairs t pairs =
  if t.nptabs = Array.length t.ptabs then begin
    let spine = Array.make (max 8 (2 * t.nptabs)) [||] in
    Array.blit t.ptabs 0 spine 0 t.nptabs;
    t.ptabs <- spine
  end;
  t.ptabs.(t.nptabs) <- pairs;
  t.nptabs <- t.nptabs + 1;
  t.nptabs - 1

let record_span t ~tid ~pos ~n =
  if t.cur_used = t.chunk_events * ints_per_event then grow t;
  let i = t.cur_used in
  t.cur.(i) <- -1 - tid;
  t.cur.(i + 1) <- pos lor (n lsl 32);
  t.cur_used <- i + 2;
  t.len <- t.len + n

type stats = {
  instructions : int;
  cycles : int;
  fetch_accesses : int;
  cache_accesses : int;
  cache_misses : int;
  miss_rate_per_million : float;
  dcache_miss_rate_pm : float;
  power : Pf_power.Account.report;
}

(* the SA-1100's 8 KB data cache, identical in all four configurations *)
let dcache_cfg = Pf_cache.Icache.config ~size_bytes:(8 * 1024) ()

let replay ?pipeline_cfg ?power_params ?cache ?seq ~cache_cfg ~fetch_data
    t =
  let cache =
    match cache with
    | Some c -> c
    | None -> Pf_cache.Icache.create cache_cfg
  in
  let geometry = Pf_power.Geometry.of_config cache_cfg in
  let account = Pf_power.Account.create ?params:power_params geometry in
  (* no [dcache]: the data side is driven from the recorded miss counts *)
  let pipe =
    Pipeline.create ?config:pipeline_cfg ~cache ~account ~fetch_data ()
  in
  let size = t.isize in
  let full = t.chunk_events * ints_per_event in
  (* Events whose low bits and dmisses field are all zero are exactly the
     shape [Pipeline.issue_alu] covers (cls = Alu, not taken, forward,
     no memory words, no D-cache misses) — the dominant event class in
     every benchmark.  Consecutive such events form a span dispatched as
     one [Pipeline.issue_alu_span] call (local pairing state, batched
     power accounting); a span cut by a chunk boundary is replayed as two
     spans, which is equivalent — span boundaries carry no state. *)
  let alu_mask = 0x7FF lor (0x3F lsl 45) in
  (* span-scan cursors, hoisted so the scan allocates nothing per span *)
  let i = ref 0 and j = ref 0 and expect = ref 0 in
  for ci = 0 to t.nchunks - 1 do
    let chunk = t.chunks.(ci) in
    let used = if ci = t.nchunks - 1 then t.cur_used else full in
    i := 0;
    while !i < used do
      let addr = chunk.(!i) in
      let meta = chunk.(!i + 1) in
      if addr < 0 then begin
        (* block event: the referenced pairs are an ALU-shaped,
           strictly sequential run by construction, so they dispatch to
           the span kernels with no scanning at all *)
        let tab = t.ptabs.(-1 - addr) in
        let pos = span_pos meta and n = span_n meta in
        (match seq with
        | Some (seq_tog, wbase) ->
            Pipeline.issue_alu_seq_span pipe ~ev:tab ~pos ~n ~size ~seq_tog
              ~wbase
        | None -> Pipeline.issue_alu_span pipe ~ev:tab ~pos ~n);
        i := !i + 2
      end
      else if meta land alu_mask = 0 then begin
        (match seq with
        | Some (seq_tog, wbase) ->
            (* extend the span only while addresses stay sequential, the
               precondition of the line-batched kernel (a straight-line
               run always is; the check keeps exactness unconditional) *)
            j := !i + 2;
            expect := addr + size;
            while
              !j < used
              && Array.unsafe_get chunk (!j + 1) land alu_mask = 0
              && Array.unsafe_get chunk !j = !expect
            do
              j := !j + 2;
              expect := !expect + size
            done;
            Pipeline.issue_alu_seq_span pipe ~ev:chunk ~pos:!i
              ~n:((!j - !i) lsr 1) ~size ~seq_tog ~wbase;
            i := !j
        | None ->
            j := !i + 2;
            (* the slot-0 sign test also stops the scan at block events,
               whose slot 1 is not a meta word *)
            while
              !j < used
              && Array.unsafe_get chunk !j >= 0
              && Array.unsafe_get chunk (!j + 1) land alu_mask = 0
            do
              j := !j + 2
            done;
            Pipeline.issue_alu_span pipe ~ev:chunk ~pos:!i
              ~n:((!j - !i) lsr 1);
            i := !j)
      end
      else begin
        Pipeline.issue pipe
          ~backward:(meta_backward meta)
          ~mem_addr:(-1)
          ~dmisses:(meta_dmisses meta)
          ~addr ~size
          ~cls:(cls_of_code (meta_cls_code meta))
          ~reads:(meta_reads meta)
          ~writes:(meta_writes meta)
          ~taken:(meta_taken meta)
          ~mem_words:(meta_mem_words meta);
        i := !i + 2
      end
    done
  done;
  {
    instructions = Pipeline.instructions pipe;
    cycles = Pipeline.cycles pipe;
    fetch_accesses = Pipeline.fetch_accesses pipe;
    cache_accesses = Pf_cache.Icache.stats_accesses cache;
    cache_misses = Pf_cache.Icache.stats_misses cache;
    miss_rate_per_million = Pf_cache.Icache.miss_rate_per_million cache;
    dcache_miss_rate_pm = t.dcache_rate_pm;
    power = Pf_power.Account.report account;
  }
