open Pf_util

type config = {
  size_bytes : int;
  block_bytes : int;
  assoc : int;
}

(* Geometry validation.  DSE grids cross-product their axes, so degenerate
   corners (a 1 KB cache asked for 32 ways of 64 B blocks has fewer lines
   than ways) are routine inputs here, not programming errors: report every
   offending field at once through a structured Sim_error the explorer and
   the CLI can classify. *)
let validate c =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if c.size_bytes <= 0 || not (Bits.is_power_of_two c.size_bytes) then
    add "size_bytes=%d is not a positive power of two" c.size_bytes;
  if c.block_bytes < 4 || not (Bits.is_power_of_two c.block_bytes) then
    add "block_bytes=%d is not a power of two >= 4 (one fetch word)"
      c.block_bytes;
  if c.assoc < 1 || not (Bits.is_power_of_two c.assoc) then
    add "assoc=%d is not a positive power of two" c.assoc;
  (* line/set arithmetic is only meaningful once the fields above are sane *)
  if !problems = [] then begin
    if c.size_bytes < c.block_bytes then
      add "size_bytes=%d is smaller than one block (block_bytes=%d): zero lines"
        c.size_bytes c.block_bytes
    else begin
      let lines = c.size_bytes / c.block_bytes in
      if c.assoc > lines then
        add
          "assoc=%d exceeds the %d lines of a %d B cache with %d B blocks: \
           zero sets"
          c.assoc lines c.size_bytes c.block_bytes
    end
  end;
  match List.rev !problems with
  | [] -> ()
  | ps ->
      Sim_error.raisef Sim_error.Invalid_config ~where:"cache.icache"
        "degenerate cache geometry: %s" (String.concat "; " ps)

let config ?(block_bytes = 32) ?(assoc = 32) ~size_bytes () =
  let c = { size_bytes; block_bytes; assoc } in
  validate c;
  c

let sets c = c.size_bytes / c.block_bytes / c.assoc

let tag_bits c = 32 - Bits.log2_exact (sets c) - Bits.log2_exact c.block_bytes

(* Address decomposition, exposed so trace-level evaluators (the
   all-geometry DSE sweep) index their stack-distance profiles exactly the
   way [access_fast] indexes the tag array. *)

let block_of_addr c ~addr = addr lsr Bits.log2_exact c.block_bytes
let set_of_block c ~block = block land (sets c - 1)
let tag_of_block c ~block = block lsr Bits.log2_exact (sets c)

(* The activity (toggle) model: Hamming distance between consecutive set
   indices on the decoder path, and between consecutive words on the
   output bus.  [access_fast] charges exactly these per access; external
   cache models (the sweep kernel's per-profile accounting) go through
   the same two functions to stay bit-compatible. *)
let[@inline] index_toggle ~last_idx ~idx = Bits.hamming idx last_idx
let[@inline] output_toggle ~last_out ~out = Bits.hamming out last_out

type t = {
  cfg : config;
  nsets : int;
  block_shift : int;
  set_shift : int;          (* log2 nsets: tag = block lsr set_shift *)
  assoc : int;
  refill_block_words : int; (* block_bytes / 4 *)
  (* tags.(set * assoc + way); -1 = invalid.  Ways kept in MRU-first order
     so the common hit is found on the first probe. *)
  tags : int array;
  mutable accesses : int;
  mutable misses : int;
  mutable out_toggles : int;
  mutable idx_toggles : int;
  mutable refills : int;
  mutable last_out : int;
  mutable last_idx : int;
  (* fault injection: (at_access, slot, bit) tag flips applied the first
     time the access counter reaches at_access *)
  mutable pending_flips : (int * int * int) list;
  mutable flips_applied : int;
}

let create cfg =
  (* [config] already validated, but a record literal can bypass it *)
  validate cfg;
  let nsets = sets cfg in
  {
    cfg;
    nsets;
    block_shift = Bits.log2_exact cfg.block_bytes;
    set_shift = Bits.log2_exact nsets;
    assoc = cfg.assoc;
    refill_block_words = cfg.block_bytes / 4;
    tags = Array.make (nsets * cfg.assoc) (-1);
    accesses = 0;
    misses = 0;
    out_toggles = 0;
    idx_toggles = 0;
    refills = 0;
    last_out = 0;
    last_idx = 0;
    pending_flips = [];
    flips_applied = 0;
  }

type result = {
  hit : bool;
  toggles : int;
  refilled_words : int;
}

let slots t = t.nsets * t.cfg.assoc

let schedule_tag_flip t ~at_access ~slot ~bit =
  if slot < 0 || slot >= slots t then
    invalid_arg "Icache.schedule_tag_flip: slot out of range";
  t.pending_flips <- (at_access, slot, bit) :: t.pending_flips

let flips_applied t = t.flips_applied

let apply_due_flips t =
  match t.pending_flips with
  | [] -> ()
  | _ ->
      let due, rest =
        List.partition (fun (at, _, _) -> at <= t.accesses) t.pending_flips
      in
      t.pending_flips <- rest;
      List.iter
        (fun (_, slot, bit) ->
          (* a flip only matters on a valid line: an invalid way has no
             stored tag to corrupt *)
          if t.tags.(slot) >= 0 then begin
            t.tags.(slot) <- t.tags.(slot) lxor (1 lsl bit);
            t.flips_applied <- t.flips_applied + 1
          end)
        due

let access_fast t ~addr ~data =
  t.accesses <- t.accesses + 1;
  (match t.pending_flips with [] -> () | _ -> apply_due_flips t);
  let block = addr lsr t.block_shift in
  let set = block land (t.nsets - 1) in
  let tag = block lsr t.set_shift in
  let idx_t = index_toggle ~last_idx:t.last_idx ~idx:set in
  let out_t = output_toggle ~last_out:t.last_out ~out:data in
  t.idx_toggles <- t.idx_toggles + idx_t;
  t.last_idx <- set;
  t.out_toggles <- t.out_toggles + out_t;
  t.last_out <- data;
  let assoc = t.assoc in
  let base = set * assoc in
  let tags = t.tags in
  (* way search + MRU rotate run once per fetched word; indices are within
     [base, base+assoc) ⊂ [0, nsets*assoc) = length tags by construction,
     so unsafe accesses (and a hand rotate instead of the Array.blit C
     call) are sound *)
  let way = ref 0 in
  while !way < assoc && Array.unsafe_get tags (base + !way) <> tag do
    incr way
  done;
  if !way < assoc then begin
    (* hit: move to front (MRU) *)
    let w = !way in
    if w > 0 then begin
      for j = w downto 1 do
        Array.unsafe_set tags (base + j)
          (Array.unsafe_get tags (base + j - 1))
      done;
      Array.unsafe_set tags base tag
    end;
    ((idx_t + out_t) lsl 16) lor 1
  end
  else begin
    t.misses <- t.misses + 1;
    let rw = t.refill_block_words in
    t.refills <- t.refills + rw;
    (* insert at MRU, evict LRU (last way) *)
    Array.blit tags base tags (base + 1) (assoc - 1);
    tags.(base) <- tag;
    ((idx_t + out_t) lsl 16) lor (rw lsl 1)
  end

(* [access_fast] minus the switching-activity model: no index/output
   Hamming toggles, no bus state.  Tag array, MRU order, miss counters
   and pending flips evolve identically, so the hit/miss sequence is
   bit-identical to [access_fast] on the same address stream.
   Only sound on an instance whose toggle counters are never read AND
   whose every access goes through this entry point (skipping the
   [last_idx]/[last_out] updates desynchronizes any later toggle
   computation): the D-cache qualifies — the pipeline consumes only its
   miss counts, and power accounting models the I-cache alone. *)
let access_count t ~addr =
  t.accesses <- t.accesses + 1;
  (match t.pending_flips with [] -> () | _ -> apply_due_flips t);
  let block = addr lsr t.block_shift in
  let set = block land (t.nsets - 1) in
  let tag = block lsr t.set_shift in
  let assoc = t.assoc in
  let base = set * assoc in
  let tags = t.tags in
  let way = ref 0 in
  while !way < assoc && Array.unsafe_get tags (base + !way) <> tag do
    incr way
  done;
  if !way < assoc then begin
    let w = !way in
    if w > 0 then begin
      for j = w downto 1 do
        Array.unsafe_set tags (base + j)
          (Array.unsafe_get tags (base + j - 1))
      done;
      Array.unsafe_set tags base tag
    end;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    t.refills <- t.refills + t.refill_block_words;
    Array.blit tags base tags (base + 1) (assoc - 1);
    tags.(base) <- tag;
    false
  end

let line_of_addr t ~addr = addr lsr t.block_shift

(* Snooping invalidate: drop the line holding [addr] if present.  The
   multicore coherence layer calls this on every remote core's private
   D-cache when a shared-region store propagates — write-through with
   invalidate, the simplest protocol that keeps private caches coherent.
   Later ways shift up so the MRU-first order stays compact (an invalid
   way in the middle would end the way search early on [access_count]'s
   linear probe only by accident of tag value). *)
let invalidate_addr t ~addr =
  let block = addr lsr t.block_shift in
  let set = block land (t.nsets - 1) in
  let tag = block lsr t.set_shift in
  let assoc = t.assoc in
  let base = set * assoc in
  let tags = t.tags in
  let way = ref 0 in
  while !way < assoc && Array.unsafe_get tags (base + !way) <> tag do
    incr way
  done;
  if !way < assoc then begin
    for j = !way to assoc - 2 do
      Array.unsafe_set tags (base + j) (Array.unsafe_get tags (base + j + 1))
    done;
    tags.(base + assoc - 1) <- -1;
    true
  end
  else false

(* Same-line fast path for the block-compiled engine and sequential
   straight-line fetch: the caller proves (by tracking [line_of_addr]
   values) that the immediately preceding access to this cache touched the
   same cache line.  Under that precondition the outcome of [access_fast]
   is fully determined — both its hit and its miss path leave the touched
   line at way 0 (MRU-first order), so this access is a way-0 hit; the set
   index equals [last_idx], so the decoder Hamming toggle is 0.  The only
   state that changes is the access counter and the output-bus toggle
   stream.  Pending tag flips take the slow path: a flip can corrupt the
   way-0 tag between two sequential fetches and its due time is a function
   of the access counter — and after [access_fast] handles it, the
   matched-or-refilled tag is back at way 0, re-arming the precondition.  Counter-for-counter identical to [access_fast]; the
   replay-equivalence and three-way differential tests assert it. *)
let access_seq t ~addr ~data =
  match t.pending_flips with
  | _ :: _ -> access_fast t ~addr ~data
  | [] ->
      t.accesses <- t.accesses + 1;
      let out_t = output_toggle ~last_out:t.last_out ~out:data in
      t.out_toggles <- t.out_toggles + out_t;
      t.last_out <- data;
      (out_t lsl 16) lor 1

let has_pending_flips t = t.pending_flips <> []
let block_bytes t = t.cfg.block_bytes

(* Bulk form of [naccesses] same-line sequential hits.  Preconditions
   (caller-proved, see the mli): every access is to the line of the
   immediately preceding access, so each is a guaranteed way-0 MRU hit
   with zero index toggles (same set) and refills nothing.  [toggles] must
   be the Hamming sum of the accessed word sequence against its
   predecessors and [last_out] the final word driven on the bus.  No
   pending tag flips: the access counter jumps by [naccesses], so a flip
   falling due inside the run would be applied late — callers check
   [has_pending_flips] and take the per-access path instead. *)
let access_seq_run t ~naccesses ~toggles ~last_out =
  t.accesses <- t.accesses + naccesses;
  t.out_toggles <- t.out_toggles + toggles;
  t.last_out <- last_out

let access t ~addr ~data =
  let r = access_fast t ~addr ~data in
  {
    hit = r land 1 = 1;
    toggles = r lsr 16;
    refilled_words = (r lsr 1) land 0x7FFF;
  }

let stats_accesses t = t.accesses
let stats_misses t = t.misses
let output_toggles t = t.out_toggles
let addr_toggles t = t.idx_toggles
let refill_words t = t.refills

let miss_rate_per_million t =
  if t.accesses = 0 then 0.0
  else 1_000_000.0 *. float_of_int t.misses /. float_of_int t.accesses

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0;
  t.out_toggles <- 0;
  t.idx_toggles <- 0;
  t.refills <- 0;
  (* toggle baselines are part of the stats stream: left stale, the first
     access after a reset would charge Hamming distance against the
     previous stream's last word/index *)
  t.last_out <- 0;
  t.last_idx <- 0
