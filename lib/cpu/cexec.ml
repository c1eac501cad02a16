(* The block driver of the compiled engine, one loop for both ISAs.

   Each lazily built Bexec block is paired with its per-instruction static
   trace metas (Trace packing lives up here — lib/arm cannot depend on
   lib/cpu) and its FITS source-retirement sums.  The metas double as the
   packed event stream: [pairs] interleaves each instruction's fetch
   address with its static meta word, which is exactly the span layout
   [Pipeline.issue_alu_seq_span] consumes and the table layout
   [Trace.register_pairs] aliases — so a fused ALU run costs one span call
   and one two-int block-granular trace event instead of per-instruction
   issue and packing.

   Whatever the block path cannot do exactly is left to [Step.step], the
   per-instruction body: the halt transition, faulting fetches, legality
   fallback blocks, and any block inside which a step-budget exhaustion
   or a deadline poll would land.  Every raise and every poll therefore
   happens at precisely the step count and pc of the per-instruction
   loop. *)

module Px = Pf_arm.Pexec
module Bx = Pf_arm.Bexec

type cblock = {
  bb : Bx.block;
  metas : int array;
      (* static_meta per instruction, from the ORIGINAL uop: identical
         class/masks/direction whether or not the executed form was
         flag-elided *)
  pairs : int array;
      (* (addr, static meta) per instruction: the packed ALU-event span /
         registered-table source for straight-line stretches *)
  src : int;
      (* source instructions one execution retires (FITS first-of-group
         slots; 0 on ARM, whose stepper counts them from the pipeline) *)
  one : int;  (* ... of which are 1-to-1 mappings *)
  mutable tid : int;
      (* [Trace.register_pairs] id of [pairs] in the run's trace, -1
         until first recorded (a driver serves exactly one run, hence at
         most one trace) *)
}

type t = { s : Step.t; bx : Bx.t; cblocks : cblock option array }

let build t leader =
  let s = t.s in
  let bb = Bx.block_at t.bx leader in
  let metas =
    Array.map
      (fun (u : Px.uop) ->
        Trace.static_meta ~cls_code:u.Px.cls ~backward:u.Px.backward
          ~reads:u.Px.reads ~writes:u.Px.writes)
      bb.Bx.orig
  in
  let len = bb.Bx.len in
  let start = s.Step.code_base + (leader * s.Step.isize) in
  let pairs = Array.make (2 * len) 0 in
  for i = 0 to len - 1 do
    pairs.(2 * i) <- start + (i * s.Step.isize);
    pairs.((2 * i) + 1) <- metas.(i)
  done;
  let src = ref 0 and one = ref 0 in
  if Array.length s.Step.src_first > 0 then
    for k = leader to leader + len - 1 do
      if s.Step.src_first.(k) then begin
        incr src;
        if s.Step.src_single.(k) then incr one
      end
    done;
  { bb; metas; pairs; src = !src; one = !one; tid = -1 }

let block_at t leader =
  match Array.unsafe_get t.cblocks leader with
  | Some cb -> cb
  | None ->
      let cb = build t leader in
      t.cblocks.(leader) <- Some cb;
      cb

let run (s : Step.t) =
  let bx = Bx.create s.Step.uops in
  let cx = { s; bx; cblocks = Array.make (Bx.slots bx) None } in
  let st = s.Step.st and o = s.Step.o and pipe = s.Step.pipe in
  let trace = s.Step.trace in
  let isize = s.Step.isize and ishift = s.Step.ishift in
  let cb = s.Step.code_base and n = s.Step.n in
  let align_mask = s.Step.align_mask in
  let max_steps = s.Step.max_steps in
  let arm = isize = 4 in
  let regs = st.Pf_arm.Exec.regs in
  let dmask = Pf_arm.Exec.deadline_mask in
  let sh_dp = Bx.sh_dp in
  let seq_tog = Pipeline.seq_toggle_prefix ~words:s.Step.words in
  let wbase = cb lsr 2 in
  (* run-scan cursors, hoisted so block dispatch allocates nothing *)
  let i = ref 0 and j = ref 0 in
  while not st.Pf_arm.Exec.halted do
    let pc = s.Step.pc in
    let off = pc - cb in
    let idx = off lsr ishift in
    (* the halt sentinel lies outside every code segment *)
    if off < 0 || off land align_mask <> 0 || idx >= n then Step.step s
    else begin
      let cbk = block_at cx idx in
      let bb = cbk.bb in
      let len = bb.Bx.len in
      let steps = st.Pf_arm.Exec.steps in
      if
        bb.Bx.fallback
        || steps + len > max_steps
        || (steps + dmask) land lnot dmask < steps + len
      then Step.step s
      else begin
        bb.Bx.execs <- bb.Bx.execs + 1;
        let xu = bb.Bx.xuops in
        let shapes = bb.Bx.shapes in
        let pairs = cbk.pairs in
        (* Maximal runs of ALU-shaped instructions execute first, then
           issue as one span: execution never reads the pipeline and the
           span issue never reads architectural state, and neither a dead
           compare nor a straight-line DP op can fault, so the reordering
           within a run is unobservable. *)
        i := 0;
        while !i < len do
          let sh = Array.unsafe_get shapes !i in
          if sh <= sh_dp then begin
            j := !i + 1;
            while !j < len && Array.unsafe_get shapes !j <= sh_dp do
              incr j
            done;
            for k = !i to !j - 1 do
              if Array.unsafe_get shapes k = sh_dp then
                Px.exec_dp_nr st o (Array.unsafe_get xu k)
              else st.Pf_arm.Exec.steps <- st.Pf_arm.Exec.steps + 1
            done;
            Pipeline.issue_alu_seq_span pipe ~ev:pairs ~pos:(2 * !i)
              ~n:(!j - !i) ~size:isize ~seq_tog ~wbase;
            (match trace with
            | None -> ()
            | Some t ->
                if cbk.tid < 0 then cbk.tid <- Trace.register_pairs t pairs;
                Trace.record_span t ~tid:cbk.tid ~pos:(2 * !i) ~n:(!j - !i));
            i := !j
          end
          else begin
            let u = Array.unsafe_get xu !i in
            let a = pc + (!i lsl ishift) in
            Px.exec st o u;
            let taken = o.Pf_arm.Exec.branch_taken in
            let mem_words = o.Pf_arm.Exec.mem_words in
            Pipeline.issue pipe ~backward:u.Px.backward
              ~mem_addr:o.Pf_arm.Exec.mem_addr ~dmisses:(-1) ~addr:a
              ~size:isize ~cls:(Trace.cls_of_code u.Px.cls) ~reads:u.Px.reads
              ~writes:u.Px.writes ~taken ~mem_words;
            (match trace with
            | None -> ()
            | Some t ->
                Trace.record_packed t ~addr:a
                  ~meta:
                    (Array.unsafe_get cbk.metas !i
                    lor Trace.dynamic_meta ~taken ~mem_words
                          ~dmisses:(Pipeline.last_dcache_misses pipe)));
            incr i
          end
        done;
        let next =
          if bb.Bx.has_term then o.Pf_arm.Exec.next_pc else pc + (len lsl ishift)
        in
        s.Step.pc <- next;
        if arm then regs.(15) <- next;
        s.Step.src_retired <- s.Step.src_retired + cbk.src;
        s.Step.src_one <- s.Step.src_one + cbk.one
      end
    end
  done
