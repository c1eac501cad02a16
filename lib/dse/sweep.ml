(* Single-pass all-geometry cache evaluation (Mattson stack distances).

   One annotated pass over a recorded trace reproduces, bit-for-bit, what
   [Trace.replay] measures for EVERY geometry of a grid at once.  The key
   structural facts, each verified against the modules that own them:

   - The I-cache ([Icache.access_fast]) is exact LRU kept in MRU-first
     order: a hit rotates the way to the front, a miss inserts at the
     front and drops the last way.  That is precisely Mattson's stack
     algorithm, so one MRU-ordered stack per set, per (block size,
     set count) pair, yields the hit/miss outcome for ALL associativities
     simultaneously: an access at stack position [pos] hits every cache
     with [assoc > pos] (LRU inclusion).

   - Which accesses happen at all (the fetch-buffer filter), the words
     driven on the output bus, D-cache stalls, load-use bubbles and
     back-end penalties are functions of the trace alone — geometry
     never feeds back into the instruction stream.  Only three things
     vary per geometry: fetch hit/miss, set-index toggles (shared by all
     lanes of a (block, nsets) profile) and the dual-issue pairing
     stream, which depends on geometry only through hit/miss.

   - Pairing ([Pipeline.issue]) admits a per-lane recurrence.  With
     [compat] collecting the geometry-invariant conditions (previous
     instruction left the pair slot open, no data stall, no bubble, no
     RAW against the previous instruction's writes, not a second memory
     op, not a branch), instruction i pairs at lane L iff

       compat_i  &&  hit_i(L)  &&  not paired_{i-1}(L)

     The slot state consulted by [compat] is the PREVIOUS instruction's
     writes/mem class: [issue] updates slot_writes/slot_mem on every
     unpaired instruction, and lanes where the previous instruction
     paired are exactly the lanes masked off by [not paired_{i-1}].
     This evaluates for all lanes of a profile at once as word-parallel
     bit operations on lane masks.

   - Power accounting ([Account]) is pure integer counting with energies
     evaluated in closed form, and peak windows close every
     [peak_window_insns] retirements — an instruction-aligned boundary
     that falls on the same trace index for every geometry.  Summing the
     per-instruction cycle charges of [issue] over a window:

       cycles_w(L) = events_w - paired_w(L) + bubbles_w + extras_w
                     + miss_penalty * (dmisses_w + fetch_misses_w(L))

     so a window's power sample needs only per-lane paired/miss counts
     on top of shared sums, and [Account.window_power] /
     [Account.report_of_counts] reproduce the replay's floats exactly.

   Per-profile stacks are clamped to the code's block-number span: if the
   span fits in fewer sets than the geometry has, distinct blocks cannot
   collide in a set anyway ([s_eff] = pow2(span) preserves the grouping
   because two distinct in-span blocks differ by less than s_eff), and
   stack depth beyond the maximum associativity of the profile (or the
   most distinct blocks a set can see) only records accesses that miss
   at every lane.  This keeps a thousand-geometry sweep's working set at
   O(code span) per profile instead of O(sets * assoc).

   Two structural shortcuts keep the per-event cost sublinear in the
   profile count (133 profiles on the dense grid):

   - Shift gating.  Profiles are grouped by block shift; a fetch whose
     block number is unchanged for a shift is a position-0 hit in every
     profile of that group — no stack search, no bucket write (bucket 0
     never feeds the miss suffix sums), no index toggle (same index).
     Sequential fetches change on average ~1 of the 7 shifts, so the
     expensive search loop runs over a handful of profiles per event.

   - Word-packed pairing.  Every profile's lane mask is first-fit packed
     into 62-bit machine words shared across profiles, so the per-event
     pairing recurrence and its bit-sliced counters run over ~N/62 words
     instead of one mask per profile.  Hit masks are maintained in the
     packed words incrementally: a changed profile writes its (suffix)
     hit mask into its segment; the next unchanged fetch OR-restores the
     group's segments to full.  Non-compat events only set a lazy
     "pairing state is zero" flag instead of clearing every word. *)

open Pf_util
module Icache = Pf_cache.Icache
module Account = Pf_power.Account

let where = "dse.sweep"

(* Lane masks live in one immediate int; 62 keeps clear of the sign bit.
   Profiles with more associativity points than this are split into
   chunks that each re-run the (cheap) stack search. *)
let max_lanes = 62

(* One (block_shift, nsets) stack-distance profile covering <= max_lanes
   geometries (lanes), sorted by ascending associativity so that the
   lanes hitting at stack position [pos] are a suffix of the lane set. *)
type profile = {
  block_shift : int;
  nsets : int;             (* real set count: the index-toggle stream *)
  s_mask : int;            (* s_eff - 1; stack set = block land s_mask *)
  depth : int;             (* tracked stack depth per set *)
  stack : int array;       (* s_eff * depth block numbers, -1 = empty *)
  lanes : int array;       (* global lane ids, ascending assoc *)
  nlanes : int;
  full_mask : int;         (* (1 lsl nlanes) - 1 *)
  bidx_of_pos : int array; (* #lanes with assoc <= pos, pos < depth *)
  w_buckets : int array;   (* nlanes+1 window counters indexed by bidx *)
  mutable last_idx : int;  (* set-index toggle baseline (starts 0) *)
  mutable w_idx_tog : int; (* window index toggles *)
  mutable idx_tog_tot : int;
}

let pow2_ge n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let rec chunks k = function
  | [] -> []
  | l ->
      let rec take n = function
        | x :: tl when n > 0 ->
            let a, b = take (n - 1) tl in
            (x :: a, b)
        | rest -> ([], rest)
      in
      let a, b = take k l in
      a :: chunks k b

(* Add a pairing mask into the bit-sliced counters at [off]: a carry-save
   add of one bit per lane, O(log window) word operations.  The counters
   live in one flat array of [nslices] words per packed pairing word. *)
let[@inline] slices_add slices off pm =
  let carry = ref pm in
  let k = ref off in
  while !carry <> 0 do
    let s = Array.unsafe_get slices !k in
    Array.unsafe_set slices !k (s lxor !carry);
    carry := s land !carry;
    incr k
  done

let[@inline] slices_get slices off nslices bit =
  let v = ref 0 in
  for k = 0 to nslices - 1 do
    v := !v lor (((Array.unsafe_get slices (off + k) lsr bit) land 1) lsl k)
  done;
  !v

let run ?(params_of = fun (_ : Icache.config) -> Account.Params.default)
    ~geometries ~fetch_data trace =
  let cfgs = Array.of_list geometries in
  let nl = Array.length cfgs in
  if nl = 0 then [||]
  else begin
    Array.iter Icache.validate cfgs;
    let geoms = Array.map Pf_power.Geometry.of_config cfgs in
    let params = Array.map params_of cfgs in
    let kwin = params.(0).Account.Params.peak_window_insns in
    Array.iter
      (fun (p : Account.Params.t) ->
        if p.Account.Params.peak_window_insns <> kwin then
          Sim_error.raisef Sim_error.Invalid_config ~where
            "peak_window_insns must be uniform across geometries \
             (got %d and %d): windows must close on the same trace index \
             in every lane"
            kwin p.Account.Params.peak_window_insns)
      params;
    if kwin <= 0 then
      Sim_error.raisef Sim_error.Invalid_config ~where
        "peak_window_insns must be positive (got %d)" kwin;
    let nslices =
      let rec bits k n = if k = 0 then n else bits (k lsr 1) (n + 1) in
      bits kwin 1
    in
    let lane_assoc = Array.map (fun c -> c.Icache.assoc) cfgs in
    let lane_bw = Array.map (fun c -> c.Icache.block_bytes / 4) cfgs in
    let lane_prof = Array.make nl (-1) in
    (* prepass: the code's word-address span bounds every profile's
       useful stack size *)
    let min_w = ref max_int and max_w = ref min_int in
    Pf_cpu.Trace.iter trace (fun addr _ ->
        let w = addr land lnot 3 in
        if w < !min_w then min_w := w;
        if w > !max_w then max_w := w);
    (* group lanes into (block_shift, nsets) profiles *)
    let groups : (int * int, int list) Hashtbl.t = Hashtbl.create 64 in
    for l = nl - 1 downto 0 do
      let key =
        (Bits.log2_exact cfgs.(l).Icache.block_bytes, Icache.sets cfgs.(l))
      in
      let prev = Option.value ~default:[] (Hashtbl.find_opt groups key) in
      Hashtbl.replace groups key (l :: prev)
    done;
    let profs =
      Hashtbl.fold
        (fun (block_shift, nsets) ids acc ->
          let ids =
            List.sort
              (fun a b -> compare lane_assoc.(a) lane_assoc.(b))
              ids
          in
          List.fold_left
            (fun acc ids ->
              let lanes = Array.of_list ids in
              let nlanes = Array.length lanes in
              let maxd = lane_assoc.(lanes.(nlanes - 1)) in
              let span =
                if !min_w > !max_w then 1
                else
                  (!max_w lsr block_shift) - (!min_w lsr block_shift) + 1
              in
              let s_eff = min nsets (pow2_ge span) in
              let t_max = ((span - 1) / s_eff) + 1 in
              let depth = max 1 (min maxd t_max) in
              let bidx_of_pos =
                Array.init depth (fun pos ->
                    let n = ref 0 in
                    Array.iter
                      (fun l -> if lane_assoc.(l) <= pos then incr n)
                      lanes;
                    !n)
              in
              {
                block_shift;
                nsets;
                s_mask = s_eff - 1;
                depth;
                stack = Array.make (s_eff * depth) (-1);
                lanes;
                nlanes;
                full_mask = (1 lsl nlanes) - 1;
                bidx_of_pos;
                w_buckets = Array.make (nlanes + 1) 0;
                last_idx = 0;
                w_idx_tog = 0;
                idx_tog_tot = 0;
              }
              :: acc)
            acc (chunks max_lanes ids))
        groups []
    in
    let profs = Array.of_list profs in
    (* sort by shift so each shift's profiles form one contiguous run,
       the unit of the shift-gating fast path below *)
    Array.sort
      (fun a b -> compare (a.block_shift, a.nsets) (b.block_shift, b.nsets))
      profs;
    let np = Array.length profs in
    Array.iteri
      (fun pi p ->
        Array.iter (fun l -> lane_prof.(l) <- pi) p.lanes)
      profs;
    (* shift groups: contiguous [grp_lo, grp_hi] runs of profiles that
       share a block shift, each with its own previous-block gate *)
    let ngrp = ref 0 in
    for pi = 0 to np - 1 do
      if pi = 0 || profs.(pi).block_shift <> profs.(pi - 1).block_shift
      then incr ngrp
    done;
    let ngrp = !ngrp in
    let grp_shift = Array.make ngrp 0 in
    let grp_lo = Array.make ngrp 0 in
    let grp_hi = Array.make ngrp 0 in
    let g = ref (-1) in
    for pi = 0 to np - 1 do
      if pi = 0 || profs.(pi).block_shift <> profs.(pi - 1).block_shift
      then begin
        incr g;
        grp_shift.(!g) <- profs.(pi).block_shift;
        grp_lo.(!g) <- pi
      end;
      grp_hi.(!g) <- pi
    done;
    let grp_prev = Array.make ngrp (-1) in
    let grp_dirty = Array.make ngrp false in
    (* first-fit pack every profile's lane mask into shared 62-bit
       pairing words; a profile's lanes stay contiguous in one word *)
    let pwA = Array.make np 0 in (* packed word index per profile *)
    let poA = Array.make np 0 in (* bit offset within the word *)
    let segF = Array.make np 0 in (* full_mask lsl offset *)
    let nw = ref 0 in
    let used = Array.make np 0 in
    for pi = 0 to np - 1 do
      let n = profs.(pi).nlanes in
      let w = ref 0 in
      while !w < !nw && used.(!w) + n > max_lanes do incr w done;
      if !w = !nw then incr nw;
      pwA.(pi) <- !w;
      poA.(pi) <- used.(!w);
      segF.(pi) <- profs.(pi).full_mask lsl used.(!w);
      used.(!w) <- used.(!w) + n
    done;
    let nw = !nw in
    let pk_hm = Array.make nw 0 in (* current hit mask, per packed word *)
    let pk_pp = Array.make nw 0 in (* lanes where the previous event paired *)
    let pk_full = Array.make nw 0 in
    for pi = 0 to np - 1 do
      pk_full.(pwA.(pi)) <- pk_full.(pwA.(pi)) lor segF.(pi)
    done;
    Array.blit pk_full 0 pk_hm 0 nw;
    let pk_slices = Array.make (nw * nslices) 0 in
    let pp_zero = ref true in
    (* dense lane order: profile-major positions so the window-close
       loop walks every per-lane array sequentially instead of
       scattering through geometry order.  [perm] maps dense position
       -> lane id; [dpos] inverts it for the cold result assembly. *)
    let lane_base = Array.make np 0 in
    let perm = Array.make nl 0 in
    let doff = ref 0 in
    for pi = 0 to np - 1 do
      lane_base.(pi) <- !doff;
      let p = profs.(pi) in
      for li = 0 to p.nlanes - 1 do
        perm.(!doff + li) <- p.lanes.(li)
      done;
      doff := !doff + p.nlanes
    done;
    let dpos = Array.make nl 0 in
    Array.iteri (fun i l -> dpos.(l) <- i) perm;
    (* Per-lane power coefficients, prefetched into dense float arrays:
       the window close evaluates peak power once per lane per window,
       and in Closure mode (no flambda) a cross-module call to
       [Account.window_power] boxes its float result — ~2 words per
       call, a per-event allocation at sweep scale.  The formula below
       is the exact operation order of [Account.window_power] /
       [Account.switching_energy]; the sweep-vs-replay QCheck
       differential pins the bit-identity. *)
    let k_acc =
      Array.init nl (fun i ->
          params.(perm.(i)).Account.Params.k_access)
    in
    let k_out =
      Array.init nl (fun i ->
          params.(perm.(i)).Account.Params.k_output)
    in
    let k_ref =
      Array.init nl (fun i ->
          params.(perm.(i)).Account.Params.k_refill_per_bit)
    in
    let k_int =
      Array.init nl (fun i ->
          Account.internal_per_cycle params.(perm.(i)) geoms.(perm.(i)))
    in
    let k_lkg =
      Array.init nl (fun i ->
          Account.leakage_per_cycle params.(perm.(i)) geoms.(perm.(i)))
    in
    let bw_d = Array.init nl (fun i -> lane_bw.(perm.(i))) in
    (* per-lane accumulators in dense order; peaks in flat float arrays
       stay unboxed *)
    let lane_cycles = Array.make nl 0 in
    let lane_misses = Array.make nl 0 in
    let lane_peak = Array.make nl 0.0 in
    (* peak pre-filter: a window can only raise lane i's peak if
       sw/cyc > lane_peak - k_int - k_lkg; [lane_thr] caches that bound
       shaved by a relative 1e-6 (plus an absolute epsilon around zero),
       6 orders beyond float rounding, so the cheap multiply test below
       never rejects a window the exact comparison would accept.  The
       exact [Account.window_power] comparison still decides. *)
    let lane_thr = Array.make nl neg_infinity in
    (* shared (geometry-invariant) state *)
    let cfg = Pf_cpu.Pipeline.sa1100 in
    let mp = cfg.Pf_cpu.Pipeline.miss_penalty in
    let dual = cfg.Pf_cpu.Pipeline.dual_issue in
    let fbuf = cfg.Pf_cpu.Pipeline.fetch_buffer in
    let last_fetch = ref (-1) in
    let last_out = ref 0 in
    let open_prev = ref false in
    let prev_writes = ref 0 in
    let prev_mem = ref false in
    let prev_load_writes = ref 0 in
    (* window sums (shared) and running totals *)
    let w_events = ref 0 in
    let w_acc = ref 0 in
    let w_out_tog = ref 0 in
    let w_bubbles = ref 0 in
    let w_extras = ref 0 in
    let w_dm = ref 0 in
    let tot_acc = ref 0 in
    let tot_out_tog = ref 0 in
    (* the default 32-instruction window needs 7 bit slices; unrolled
       extraction with the slice words in registers beats the generic
       per-lane loop by ~2x, and any window size up to 256 fits *)
    let slice_unroll = nslices <= 8 in
    let close_window () =
      let we = !w_events in
      if we > 0 then begin
        let shared = !w_bubbles + !w_extras + (mp * !w_dm) in
        let f_acc = float_of_int !w_acc in
        for pi = 0 to np - 1 do
          let p = profs.(pi) in
          let soff = pwA.(pi) * nslices in
          let lane0 = poA.(pi) in
          let s0 = Array.unsafe_get pk_slices soff in
          let s1 =
            if nslices > 1 then Array.unsafe_get pk_slices (soff + 1) else 0
          in
          let s2 =
            if nslices > 2 then Array.unsafe_get pk_slices (soff + 2) else 0
          in
          let s3 =
            if nslices > 3 then Array.unsafe_get pk_slices (soff + 3) else 0
          in
          let s4 =
            if nslices > 4 then Array.unsafe_get pk_slices (soff + 4) else 0
          in
          let s5 =
            if nslices > 5 then Array.unsafe_get pk_slices (soff + 5) else 0
          in
          let s6 =
            if nslices > 6 then Array.unsafe_get pk_slices (soff + 6) else 0
          in
          let s7 =
            if nslices > 7 then Array.unsafe_get pk_slices (soff + 7) else 0
          in
          (* zero exactly when none of THIS profile's lanes paired in
             the window: the extraction can be skipped wholesale *)
          let sall =
            (s0 lor s1 lor s2 lor s3 lor s4 lor s5 lor s6 lor s7)
            land Array.unsafe_get segF pi
          in
          let w_tog = !w_out_tog + p.w_idx_tog in
          let f_tog = float_of_int w_tog in
          let bk = p.w_buckets in
          let lb = Array.unsafe_get lane_base pi in
          let missrun = ref 0 in
          for li = p.nlanes - 1 downto 0 do
            missrun := !missrun + Array.unsafe_get bk (li + 1);
            let i = lb + li in
            let bit = lane0 + li in
            let paired =
              if sall = 0 then 0
              else if slice_unroll then
                ((s0 lsr bit) land 1)
                lor (((s1 lsr bit) land 1) lsl 1)
                lor (((s2 lsr bit) land 1) lsl 2)
                lor (((s3 lsr bit) land 1) lsl 3)
                lor (((s4 lsr bit) land 1) lsl 4)
                lor (((s5 lsr bit) land 1) lsl 5)
                lor (((s6 lsr bit) land 1) lsl 6)
                lor (((s7 lsr bit) land 1) lsl 7)
              else slices_get pk_slices soff nslices bit
            in
            let mw = !missrun in
            let cyc = we - paired + shared + (mp * mw) in
            lane_cycles.(i) <- lane_cycles.(i) + cyc;
            lane_misses.(i) <- lane_misses.(i) + mw;
            if cyc > 0 then begin
              (* [Account.window_power], operation for operation (see
                 the coefficient prefetch above for why it is inlined
                 by hand) *)
              let fcyc = float_of_int cyc in
              let sw =
                (k_acc.(i) *. f_acc)
                +. (k_out.(i) *. f_tog)
                +. (k_ref.(i) *. float_of_int (mw * bw_d.(i) * 32))
              in
              if sw > lane_thr.(i) *. fcyc then begin
                let pw = (sw /. fcyc) +. k_int.(i) +. k_lkg.(i) in
                if pw > lane_peak.(i) then begin
                  lane_peak.(i) <- pw;
                  let v = pw -. k_int.(i) -. k_lkg.(i) in
                  lane_thr.(i) <- v -. (Float.abs v *. 1e-6) -. 1e-12
                end
              end
            end
          done;
          p.idx_tog_tot <- p.idx_tog_tot + p.w_idx_tog;
          p.w_idx_tog <- 0;
          Array.fill p.w_buckets 0 (p.nlanes + 1) 0
        done;
        Array.fill pk_slices 0 (nw * nslices) 0;
        tot_acc := !tot_acc + !w_acc;
        tot_out_tog := !tot_out_tog + !w_out_tog;
        w_events := 0;
        w_acc := 0;
        w_out_tog := 0;
        w_bubbles := 0;
        w_extras := 0;
        w_dm := 0
      end
    in
    Pf_cpu.Trace.iter trace (fun addr meta ->
        let word = addr land lnot 3 in
        let fetched = word <> !last_fetch || not fbuf in
        if fetched then begin
          let data = fetch_data word in
          w_acc := !w_acc + 1;
          w_out_tog :=
            !w_out_tog + Icache.output_toggle ~last_out:!last_out ~out:data;
          last_out := data;
          last_fetch := word;
          for g = 0 to ngrp - 1 do
            let b = word lsr Array.unsafe_get grp_shift g in
            if b <> Array.unsafe_get grp_prev g then begin
              Array.unsafe_set grp_prev g b;
              Array.unsafe_set grp_dirty g true;
              for pi = Array.unsafe_get grp_lo g
                    to Array.unsafe_get grp_hi g do
                let p = Array.unsafe_get profs pi in
                let st = p.stack in
                let d = p.depth in
                let base = (b land p.s_mask) * d in
                let bidx =
                  (* position 0 means assoc > 0 everywhere: bucket 0 *)
                  if Array.unsafe_get st base = b then 0
                  else begin
                    (* empty (-1) slots are contiguous at the tail, so
                       the first one proves b is not tracked: stop the
                       scan there, and rotating up to it (instead of
                       the full depth) shifts only real entries — the
                       dropped tail stays all-empty either way *)
                    let j = ref 1 in
                    while
                      !j < d
                      && (let x = Array.unsafe_get st (base + !j) in
                          x <> b && x >= 0)
                    do
                      incr j
                    done;
                    let pos = !j in
                    let hit =
                      pos < d && Array.unsafe_get st (base + pos) = b
                    in
                    (* rotate the hit prefix (or, on a miss, the whole
                       occupied prefix) down one and install b at MRU —
                       the same move-to-front [access_fast] performs *)
                    let stop = if pos < d then pos else d - 1 in
                    for k = stop downto 1 do
                      Array.unsafe_set st (base + k)
                        (Array.unsafe_get st (base + k - 1))
                    done;
                    Array.unsafe_set st base b;
                    if hit then p.bidx_of_pos.(pos) else p.nlanes
                  end
                in
                let w = Array.unsafe_get pwA pi in
                (if bidx > 0 then begin
                   (* bucket 0 is never read by the miss suffix sums,
                      so only nonzero buckets are recorded *)
                   p.w_buckets.(bidx) <- p.w_buckets.(bidx) + 1;
                   let hm = (p.full_mask lsr bidx) lsl bidx in
                   Array.unsafe_set pk_hm w
                     (Array.unsafe_get pk_hm w
                      land lnot (Array.unsafe_get segF pi)
                     lor (hm lsl Array.unsafe_get poA pi))
                 end
                 else
                   Array.unsafe_set pk_hm w
                     (Array.unsafe_get pk_hm w lor Array.unsafe_get segF pi));
                let idx = b land (p.nsets - 1) in
                p.w_idx_tog <-
                  p.w_idx_tog + Icache.index_toggle ~last_idx:p.last_idx ~idx;
                p.last_idx <- idx
              done
            end
            else if Array.unsafe_get grp_dirty g then begin
              (* unchanged block: a position-0 hit in every profile of
                 the group — restore the hit-mask segments to full once,
                 then the group costs one compare per fetch *)
              Array.unsafe_set grp_dirty g false;
              for pi = Array.unsafe_get grp_lo g
                    to Array.unsafe_get grp_hi g do
                let w = Array.unsafe_get pwA pi in
                Array.unsafe_set pk_hm w
                  (Array.unsafe_get pk_hm w lor Array.unsafe_get segF pi)
              done
            end
          done
        end;
        let dm = Pf_cpu.Trace.meta_dmisses meta in
        w_dm := !w_dm + dm;
        let reads = Pf_cpu.Trace.meta_reads meta in
        let writes = Pf_cpu.Trace.meta_writes meta in
        let ccode = Pf_cpu.Trace.meta_cls_code meta in
        let is_branch = ccode = 4 in
        let is_mul = ccode = 1 in
        let is_load = ccode = 2 in
        let is_mem = is_load || ccode = 3 in
        let bubble =
          if !prev_load_writes land reads <> 0 then cfg.Pf_cpu.Pipeline.load_use_bubble
          else 0
        in
        w_bubbles := !w_bubbles + bubble;
        let compat =
          !open_prev && dm = 0 && bubble = 0
          && reads land !prev_writes = 0
          && (not (is_mem && !prev_mem))
          && not is_branch
        in
        (if compat then begin
           (* a non-fetched event hits every lane: pair against the
              all-ones masks instead of rebuilding pk_hm *)
           let hmarr = if fetched then pk_hm else pk_full in
           if !pp_zero then begin
             pp_zero := false;
             for w = 0 to nw - 1 do
               let pm = Array.unsafe_get hmarr w in
               Array.unsafe_set pk_pp w pm;
               if pm <> 0 then slices_add pk_slices (w * nslices) pm
             done
           end
           else
             for w = 0 to nw - 1 do
               let pm =
                 Array.unsafe_get hmarr w
                 land lnot (Array.unsafe_get pk_pp w)
               in
               Array.unsafe_set pk_pp w pm;
               if pm <> 0 then slices_add pk_slices (w * nslices) pm
             done
         end
         else
           (* lazily mark the pairing state cleared instead of zeroing
              every word on every non-compat event *)
           pp_zero := true);
        let taken = Pf_cpu.Trace.meta_taken meta in
        let extra =
          Pf_cpu.Pipeline.extra_cycles cfg
            ~cls:(Pf_cpu.Trace.cls_of_code ccode)
            ~taken
            ~backward:(Pf_cpu.Trace.meta_backward meta)
            ~mem_words:(Pf_cpu.Trace.meta_mem_words meta)
        in
        w_extras := !w_extras + extra;
        open_prev := dual && (not is_branch) && (not is_mul) && extra = 0;
        prev_writes := writes;
        prev_mem := is_mem;
        if taken then last_fetch := -1;
        prev_load_writes := (if is_load then writes else 0);
        incr w_events;
        if !w_events = kwin then close_window ());
    close_window ();
    let f = !tot_acc in
    let n = Pf_cpu.Trace.length trace in
    let dpm = Pf_cpu.Trace.dcache_rate trace in
    Array.init nl (fun l ->
        let i = dpos.(l) in
        let m = lane_misses.(i) in
        let cycles = lane_cycles.(i) in
        {
          Pf_cpu.Trace.instructions = n;
          cycles;
          fetch_accesses = f;
          cache_accesses = f;
          cache_misses = m;
          miss_rate_per_million =
            (if f = 0 then 0.0
             else 1_000_000.0 *. float_of_int m /. float_of_int f);
          dcache_miss_rate_pm = dpm;
          power =
            Account.report_of_counts ~params:params.(l) geoms.(l)
              ~accesses:f
              ~toggles:(!tot_out_tog + profs.(lane_prof.(l)).idx_tog_tot)
              ~refill_words:(m * lane_bw.(l))
              ~cycles ~peak:lane_peak.(i);
        })
  end
