(* Write-through snooping-invalidate coherence over the shared data
   segment.

   Each core owns a full private memory (its [Exec.t] state is untouched
   sequential-engine state, paged so that a core pays only for what it
   writes); coherence is maintained by propagation: after a core executes
   a store into the shared window [base, limit), the containing word(s)
   are copied with [Exec.load_word]/[Exec.store_word] from the writer's
   state into every other core's state, and the affected line(s) are
   snooped out of every other core's private D-cache.  Because the
   machine advances one instruction at a time under one scheduler and
   every shared store becomes globally visible before the next slice,
   the shared region behaves as a single sequentially consistent memory
   — the operational model [Model] with store-buffer capacity 0.

   Word-granular copy is sound for byte and half stores too: a sub-word
   store reports the containing word's span ([Exec] effective addresses
   are in-bounds and the copy is of whole aligned words), and copying
   bytes the writer did not change is idempotent — every core already
   agreed on them, by induction.

   A store to [sync_addr] (the KIR [__sync] global, see
   {!Pf_kir.Build.fence}) is counted as a fence.  Under this write-
   through layer it is semantically a no-op — there is no buffered state
   to drain — but the count lets litmus harnesses confirm fences
   executed, and a future store-buffer (TSO) layer turns the same marker
   into its drain point. *)

type stats = {
  mutable stores_through : int;
  mutable words_propagated : int;
  mutable invalidations : int;
  mutable fences : int;
}

type t = {
  base : int;
  limit : int;
  sync_addr : int;
  states : Pf_arm.Exec.t array;
  dcaches : Pf_cache.Icache.t array;
  stats : stats;
}

let where = "mc.coherence"

let create ?(sync_addr = -1) ~base ~limit ~states ~dcaches () =
  if limit < base then
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config ~where
      "shared window [0x%x, 0x%x) is inverted" base limit;
  if Array.length states <> Array.length dcaches then
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config ~where
      "%d states vs %d dcaches" (Array.length states) (Array.length dcaches);
  {
    base;
    limit;
    sync_addr;
    states;
    dcaches;
    stats =
      { stores_through = 0; words_propagated = 0; invalidations = 0;
        fences = 0 };
  }

let stats t = t.stats
let in_shared t ~addr = addr >= t.base && addr < t.limit

let post_store t ~core ~addr ~words =
  if in_shared t ~addr then begin
    let s = t.stats in
    s.stores_through <- s.stores_through + 1;
    if addr = t.sync_addr then s.fences <- s.fences + 1;
    let lo = addr land lnot 3 in
    let nw = max 1 words in
    let src = t.states.(core) in
    for c = 0 to Array.length t.states - 1 do
      if c <> core then begin
        let dst = t.states.(c) in
        for w = 0 to nw - 1 do
          let a = lo + (w * 4) in
          Pf_arm.Exec.store_word dst a (Pf_arm.Exec.load_word src a)
        done;
        s.words_propagated <- s.words_propagated + nw;
        (* snoop each written word; [invalidate_addr] hits a line at most
           once (later words of the same line miss), so the count is
           exact line invalidations *)
        let dc = t.dcaches.(c) in
        for w = 0 to nw - 1 do
          if Pf_cache.Icache.invalidate_addr dc ~addr:(lo + (w * 4)) then
            s.invalidations <- s.invalidations + 1
        done
      end
    done
  end
