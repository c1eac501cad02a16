(* bench/probe.exe — layer-by-layer steps/sec profiler.

   Times each layer of the simulation stack on a real benchmark
   (basicmath) plus tight microbenchmark loops over the per-step
   primitives, so a throughput regression can be attributed to a layer
   in seconds instead of re-running the full sweep.  No JSON, no
   baselines: this is the tool you run while optimizing; the CI guard is
   `main.exe --check BENCH_sweep.json`.

   Modes (for measuring the block-compiled engine per benchmark, not
   just in aggregate):

     probe.exe                    layer microbenchmarks (default)
     probe.exe --blocks  [b,...]  static + dynamic basic-block length
                                  histograms per benchmark (ARM + FITS)
     probe.exe --attrib  [b,...]  per-benchmark dispatch-vs-memory time
                                  attribution across the engines *)

module Px = Pf_arm.Pexec
module Bx = Pf_arm.Bexec

let time name f =
  let t0 = Unix.gettimeofday () in
  let steps = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "%-28s %10.3f s  %12.0f steps/sec\n" name dt
    (float_of_int steps /. dt);
  flush stdout

let prepare (b : Pf_mibench.Registry.benchmark) =
  let p = b.Pf_mibench.Registry.program ~scale:1 in
  let image =
    Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll p
  in
  let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  (image, tr)

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
   cost; the full-stack rate adds the fetch/cache/pipeline/power side
   ("memory").  The compiled engine's dispatch cost is then its total
   minus the (engine-independent) memory side. *)
let mode_attrib args =
  Printf.printf
    "%-12s %9s %9s %9s  %8s %8s %8s %8s\n" "benchmark" "pre_M/s" "cmp_M/s"
    "speedup" "disp_ns" "mem_ns" "cdisp_ns" "insns";
  List.iter
    (fun (b : Pf_mibench.Registry.benchmark) ->
      let name = b.Pf_mibench.Registry.name in
      let image, _ = prepare b in
      let prog = Px.compile image in
      let rate f =
        (* warm, then best of two timed runs *)
        ignore (f ());
        let best = ref infinity and steps = ref 0 in
        for _ = 1 to 2 do
          let t0 = Unix.gettimeofday () in
          steps := f ();
          let dt = Unix.gettimeofday () -. t0 in
          if dt < !best then best := dt
        done;
        (float_of_int !steps /. !best, !steps)
      in
      let bare, _ =
        rate (fun () ->
            let st = Pf_arm.Exec.create image in
            Px.run prog st;
            st.Pf_arm.Exec.steps)
      in
      let pre, insns =
        rate (fun () ->
            (Pf_cpu.Arm_run.run image).Pf_cpu.Arm_run.instructions)
      in
      let cmp, _ =
        rate (fun () ->
            (Pf_cpu.Arm_run.run ~engine:Pf_cpu.Arm_run.Compiled image)
              .Pf_cpu.Arm_run.instructions)
      in
      let ns r = 1e9 /. r in
      let mem_ns = ns pre -. ns bare in
      Printf.printf "%-12s %9.1f %9.1f %8.2fx  %8.1f %8.1f %8.1f %8d\n" name
        (pre /. 1e6) (cmp /. 1e6) (cmp /. pre) (ns bare) mem_ns
        (Float.max 0.0 (ns cmp -. mem_ns))
        insns;
      flush stdout)
    (benchmarks_of_args args)

(* ---- default: layer microbenchmarks ------------------------------------ *)

let mode_layers () =
  let b = Pf_mibench.Registry.find "basicmath" in
  let image, tr = prepare b in
  let prog = Px.compile image in
  (* warmup *)
  let st = Pf_arm.Exec.create image in
  Px.run prog st;
  time "pexec bare" (fun () ->
      let st = Pf_arm.Exec.create image in
      Px.run prog st;
      st.Pf_arm.Exec.steps);
  time "arm_run full (pre)" (fun () ->
      let r = Pf_cpu.Arm_run.run image in
      r.Pf_cpu.Arm_run.instructions);
  time "arm_run full (cmp)" (fun () ->
      let r = Pf_cpu.Arm_run.run ~engine:Pf_cpu.Arm_run.Compiled image in
      r.Pf_cpu.Arm_run.instructions);
  time "arm_run + trace (pre)" (fun () ->
      let t = Pf_cpu.Trace.create ~isize:4 () in
      let r = Pf_cpu.Arm_run.run ~trace:t image in
      r.Pf_cpu.Arm_run.instructions);
  time "arm_run + trace (cmp)" (fun () ->
      let t = Pf_cpu.Trace.create ~isize:4 () in
      let r =
        Pf_cpu.Arm_run.run ~engine:Pf_cpu.Arm_run.Compiled ~trace:t image
      in
      r.Pf_cpu.Arm_run.instructions);
  (let t = Pf_cpu.Trace.create ~isize:4 () in
   let r = Pf_cpu.Arm_run.run ~trace:t image in
   time "arm replay" (fun () ->
       let r2 =
         Pf_cpu.Arm_run.replay
           ~cache_cfg:(Pf_cache.Icache.config ~size_bytes:8192 ())
           ~output:r.Pf_cpu.Arm_run.output image t
       in
       r2.Pf_cpu.Arm_run.instructions));
  time "fits_run full (pre)" (fun () ->
      let r = Pf_fits.Run.run tr in
      r.Pf_fits.Run.fits_instructions);
  time "fits_run full (cmp)" (fun () ->
      let r = Pf_fits.Run.run ~engine:Pf_fits.Run.Compiled tr in
      r.Pf_fits.Run.fits_instructions);
  let n = 5_000_000 in
  let cfg16 = Pf_cache.Icache.config ~size_bytes:16384 () in
  (let c = Pf_cache.Icache.create cfg16 in
   time "icache access_fast x5M" (fun () ->
       let acc = ref 0 in
       for i = 0 to n - 1 do
         acc :=
           !acc
           + Pf_cache.Icache.access_fast c ~addr:(i * 4 land 0x7FF)
               ~data:(i * 1664525)
       done;
       ignore !acc;
       n));
  (let geometry = Pf_power.Geometry.of_config cfg16 in
   let a = Pf_power.Account.create geometry in
   time "account on_access+cycles x5M" (fun () ->
       for _ = 0 to n - 1 do
         Pf_power.Account.on_access a ~toggles:12 ~refilled_words:0;
         Pf_power.Account.on_cycles a 1
       done;
       n));
  (let cache = Pf_cache.Icache.create cfg16 in
   let account = Pf_power.Account.create (Pf_power.Geometry.of_config cfg16) in
   let pipe =
     Pf_cpu.Pipeline.create ~cache ~account
       ~fetch_data:(fun a -> a * 1664525)
       ()
   in
   time "pipeline issue x5M" (fun () ->
       for i = 0 to n - 1 do
         Pf_cpu.Pipeline.issue pipe ~backward:false ~mem_addr:(-1)
           ~dmisses:(-1)
           ~addr:(i * 4 land 0x7FF)
           ~size:4 ~cls:Pf_cpu.Pipeline.Alu ~reads:3 ~writes:4 ~taken:false
           ~mem_words:0
       done;
       n))

let () =
  match Array.to_list Sys.argv with
  | _ :: "--blocks" :: rest -> mode_blocks rest
  | _ :: "--attrib" :: rest -> mode_attrib rest
  | _ -> mode_layers ()
