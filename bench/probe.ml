(* bench/probe.exe — per-benchmark views of the block-compiled engine,
   for attributing its cost while optimizing it.  No JSON, no baselines:
   the repeated, per-layer measurement is perfbench's `--trace 1` run.

     probe.exe --blocks  [b,...]  static + dynamic basic-block length
                                  histograms per benchmark (ARM + FITS)
     probe.exe --attrib  [b,...]  per-benchmark dispatch-vs-memory time,
                                  per-instruction Step loop vs compiled *)

module Px = Pf_arm.Pexec
module Bx = Pf_arm.Bexec

let prepare (b : Pf_mibench.Registry.benchmark) =
  let p = b.Pf_mibench.Registry.program ~scale:1 in
  let image =
    Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll p
  in
  (image, (Pf_fits.Synthesis.flow image).Pf_fits.Synthesis.tr)

let benchmarks_of_args args =
  match args with
  | [] -> Pf_mibench.Registry.all
  | names ->
      List.concat_map
        (fun n ->
          List.concat_map
            (fun n -> [ Pf_mibench.Registry.find n ])
            (String.split_on_char ',' n))
        names

(* ---- --blocks: basic-block length histograms --------------------------- *)

(* Architectural-only block-dispatch walk: same lazy block table and the
   same dynamic block sequence as the compiled engine (dispatch at the pc,
   execute the block's original micro-ops, follow the terminator), without
   the cache/pipeline/power stack — enough to weight each block by its
   dynamic dispatch count. *)
let walk_blocks ~isize ~code_base ~entry uops (st : Pf_arm.Exec.t) =
  let bx = Bx.create uops in
  let o = Pf_arm.Exec.outcome () in
  let n = Array.length uops in
  let shift = if isize = 4 then 2 else 1 in
  let pc = ref entry in
  while not st.Pf_arm.Exec.halted do
    if !pc = Pf_arm.Exec.halt_sentinel then st.Pf_arm.Exec.halted <- true
    else begin
      let idx = (!pc - code_base) asr shift in
      if idx < 0 || idx >= n then
        Pf_util.Sim_error.raisef Pf_util.Sim_error.Decode_fault
          ~where:"bench.probe" "fetch outside code at 0x%x" !pc;
      let b = Bx.block_at bx idx in
      b.Bx.execs <- b.Bx.execs + 1;
      let orig = b.Bx.orig in
      for i = 0 to b.Bx.len - 1 do
        Px.exec st o orig.(i)
      done;
      pc :=
        (if b.Bx.has_term then o.Pf_arm.Exec.next_pc
         else !pc + (b.Bx.len * isize))
    end
  done;
  bx

let histogram bx =
  let max_len = ref 0 in
  Bx.iter_built bx (fun b -> if b.Bx.len > !max_len then max_len := b.Bx.len);
  let static = Array.make (!max_len + 1) 0 in
  let dyn = Array.make (!max_len + 1) 0 in
  Bx.iter_built bx (fun b ->
      static.(b.Bx.len) <- static.(b.Bx.len) + 1;
      dyn.(b.Bx.len) <- dyn.(b.Bx.len) + b.Bx.execs);
  (static, dyn)

let print_histogram name bx =
  let static, dyn = histogram bx in
  let total_dispatch = Array.fold_left ( + ) 0 dyn in
  let total_insns =
    let t = ref 0 in
    Array.iteri (fun len d -> t := !t + (len * d)) dyn;
    !t
  in
  Printf.printf "  %-10s blocks=%d dispatches=%d insns=%d avg_len=%.2f\n"
    name (Bx.blocks_built bx) total_dispatch total_insns
    (if total_dispatch = 0 then 0.0
     else float_of_int total_insns /. float_of_int total_dispatch);
  Printf.printf "    len:  static  dynamic  insn-weighted%%\n";
  Array.iteri
    (fun len s ->
      if s > 0 || dyn.(len) > 0 then
        Printf.printf "    %3d: %7d %8d  %6.2f\n" len s dyn.(len)
          (if total_insns = 0 then 0.0
           else
             100.0 *. float_of_int (len * dyn.(len)) /. float_of_int total_insns))
    static

let mode_blocks args =
  List.iter
    (fun (b : Pf_mibench.Registry.benchmark) ->
      let name = b.Pf_mibench.Registry.name in
      let image, tr = prepare b in
      Printf.printf "%s:\n" name;
      let prog = Px.compile image in
      let st = Pf_arm.Exec.create image in
      let abx =
        walk_blocks ~isize:4 ~code_base:prog.Px.code_base
          ~entry:st.Pf_arm.Exec.regs.(15) prog.Px.uops st
      in
      print_histogram "arm" abx;
      let fuops =
        Array.mapi
          (fun idx fi ->
            let pc = tr.Pf_fits.Translate.code_base + (2 * idx) in
            match fi.Pf_fits.Translate.micro with
            | Pf_fits.Mapping.M_exec insn -> Px.of_insn ~isize:2 ~pc insn
            | Pf_fits.Mapping.M_dp32 { op; s; rd; rn; value; cond } ->
                Px.dp_value ~isize:2 ~pc ~cond ~op ~s ~rd ~rn ~value
            | Pf_fits.Mapping.M_jalr rm -> Px.jalr ~pc ~rm
            | Pf_fits.Mapping.M_undef why -> Px.undef ~isize:2 ~pc ~why)
          tr.Pf_fits.Translate.insns
      in
      let fst_ = Pf_arm.Exec.create tr.Pf_fits.Translate.image in
      let fbx =
        walk_blocks ~isize:2 ~code_base:tr.Pf_fits.Translate.code_base
          ~entry:tr.Pf_fits.Translate.entry fuops fst_
      in
      print_histogram "fits" fbx;
      flush stdout)
    (benchmarks_of_args args)

(* ---- --attrib: dispatch vs memory attribution -------------------------- *)

(* Per benchmark: the bare interpreter rate isolates dispatch+execute
   cost; the per-instruction full stack ([Pf_cpu.Step.step] one
   instruction at a time, the loop test/stepped.ml drives) adds the
   fetch/cache/pipeline/power side ("memory").  The compiled engine's
   dispatch cost is then its total minus that memory side. *)
let mode_attrib args =
  Printf.printf
    "%-12s %9s %9s %9s  %8s %8s %8s %8s\n" "benchmark" "step_M/s" "cmp_M/s"
    "speedup" "disp_ns" "mem_ns" "cdisp_ns" "insns";
  List.iter
    (fun (b : Pf_mibench.Registry.benchmark) ->
      let name = b.Pf_mibench.Registry.name in
      let image, _ = prepare b in
      let prog = Px.compile image in
      let bare () =
        let st = Pf_arm.Exec.create image in
        Px.run prog st;
        st.Pf_arm.Exec.steps
      in
      let step () =
        let s = Pf_cpu.Step.of_image image in
        while not (Pf_cpu.Step.halted s) do
          Pf_cpu.Step.step s
        done;
        (Pf_cpu.Step.result s).Pf_cpu.Step.instructions
      in
      let cmp () =
        (Pf_cpu.Arm_run.run ~engine:Pf_cpu.Arm_run.Compiled image)
          .Pf_cpu.Arm_run.instructions
      in
      (* warm, then the best of seven timed runs of each, interleaved so
         that all three see the same host: the step-vs-compiled gap is a
         few ns per instruction, within one run's host noise *)
      let fs = [| bare; step; cmp |] in
      Array.iter (fun f -> ignore (f ())) fs;
      let best = Array.make 3 infinity and steps = Array.make 3 0 in
      for _ = 1 to 7 do
        Array.iteri
          (fun i f ->
            let t0 = Unix.gettimeofday () in
            steps.(i) <- f ();
            best.(i) <- Float.min best.(i) (Unix.gettimeofday () -. t0))
          fs
      done;
      let rate i = float_of_int steps.(i) /. best.(i) in
      let bare = rate 0 and step = rate 1 and cmp = rate 2 in
      let insns = steps.(1) in
      let ns r = 1e9 /. r in
      let mem_ns = ns step -. ns bare in
      Printf.printf "%-12s %9.1f %9.1f %8.2fx  %8.1f %8.1f %8.1f %8d\n" name
        (step /. 1e6) (cmp /. 1e6) (cmp /. step) (ns bare) mem_ns
        (Float.max 0.0 (ns cmp -. mem_ns))
        insns;
      flush stdout)
    (benchmarks_of_args args)

let () =
  match Array.to_list Sys.argv with
  | _ :: "--blocks" :: rest -> mode_blocks rest
  | _ :: "--attrib" :: rest -> mode_attrib rest
  | _ ->
      prerr_endline "usage: probe.exe (--blocks | --attrib) [benchmark,...]";
      exit 2
