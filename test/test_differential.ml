(* Three-way engine differential: the per-instruction path ("pre": the
   [Pf_cpu.Step.step] loop alone, for FITS through a no-op [on_step]
   hook) AND the block-compiled engine must produce *bit-identical*
   results to the reference interpreter — cycles, IPC, I-cache accesses
   and misses, toggles (via power switching energy), power report and
   program output — on every benchmark, for both the ARM and FITS
   streams and both cache geometries.  16 KB runs execute all three directly; the
   8 KB data points replay each row's own recorded trace (the harness's
   own structure), so a divergence in anything the trace captures —
   including the compiled engine's block-granular recording — shows up
   there too. *)

module R = Pf_mibench.Registry
module AR = Pf_cpu.Arm_run
module FR = Pf_fits.Run
module C = Pf_cache.Icache

let cache_16k = C.config ~size_bytes:(16 * 1024) ()
let cache_8k = C.config ~size_bytes:(8 * 1024) ()

let pp_arm (r : AR.result) =
  Printf.sprintf
    "{instrs=%d cycles=%d ipc=%.17g fetches=%d accesses=%d misses=%d \
     switching=%.17g total=%.17g peak=%.17g out=%d}"
    r.AR.instructions r.AR.cycles r.AR.ipc r.AR.fetch_accesses
    r.AR.cache_accesses r.AR.cache_misses
    r.AR.power.Pf_power.Account.switching r.AR.power.Pf_power.Account.total
    r.AR.power.Pf_power.Account.peak_power (String.length r.AR.output)

let pp_fits (r : FR.result) =
  Printf.sprintf
    "{fits=%d arm=%d cycles=%d ipc=%.17g fetches=%d accesses=%d misses=%d \
     switching=%.17g total=%.17g peak=%.17g out=%d}"
    r.FR.fits_instructions r.FR.arm_instructions r.FR.cycles r.FR.ipc
    r.FR.fetch_accesses r.FR.cache_accesses r.FR.cache_misses
    r.FR.power.Pf_power.Account.switching r.FR.power.Pf_power.Account.total
    r.FR.power.Pf_power.Account.peak_power (String.length r.FR.output)

let check_arm what ~oracle a b =
  if a <> b then
    Alcotest.failf "%s: engines diverge\n  %s: %s\n  candidate: %s" what
      oracle (pp_arm a) (pp_arm b)

let check_fits what ~oracle a b =
  if a <> b then
    Alcotest.failf "%s: engines diverge\n  %s: %s\n  candidate: %s" what
      oracle (pp_fits a) (pp_fits b)

let translate_benchmark (b : R.benchmark) =
  let p = b.R.program ~scale:1 in
  let image = Pf_armgen.Compile.program ~unroll:b.R.unroll p in
  let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  (image, tr)

let test_benchmark (b : R.benchmark) () =
  let name = b.R.name in
  let image, tr = translate_benchmark b in
  (* ARM stream: direct 16 KB runs on all three paths, replayed 8 KB runs
     from each path's own recording *)
  let tr_ref = Pf_cpu.Trace.create ~isize:4 () in
  let tr_pre = Pf_cpu.Trace.create ~isize:4 () in
  let tr_cmp = Pf_cpu.Trace.create ~isize:4 () in
  let a_ref =
    AR.run ~engine:AR.Reference ~cache_cfg:cache_16k ~trace:tr_ref image
  in
  let a_pre = Stepped.arm ~cache_cfg:cache_16k ~trace:tr_pre image in
  let a_cmp =
    AR.run ~engine:AR.Compiled ~cache_cfg:cache_16k ~trace:tr_cmp image
  in
  check_arm (name ^ "/arm/16k/pre") ~oracle:"reference" a_ref a_pre;
  check_arm (name ^ "/arm/16k/cmp") ~oracle:"reference" a_ref a_cmp;
  let a_ref8 =
    AR.replay ~cache_cfg:cache_8k ~output:a_ref.AR.output image tr_ref
  in
  let a_pre8 =
    AR.replay ~cache_cfg:cache_8k ~output:a_pre.AR.output image tr_pre
  in
  let a_cmp8 =
    AR.replay ~cache_cfg:cache_8k ~output:a_cmp.AR.output image tr_cmp
  in
  check_arm (name ^ "/arm/8k/pre") ~oracle:"reference" a_ref8 a_pre8;
  check_arm (name ^ "/arm/8k/cmp") ~oracle:"reference" a_ref8 a_cmp8;
  (* FITS stream *)
  let ft_ref = Pf_cpu.Trace.create ~isize:2 () in
  let ft_pre = Pf_cpu.Trace.create ~isize:2 () in
  let ft_cmp = Pf_cpu.Trace.create ~isize:2 () in
  let f_ref =
    FR.run ~engine:FR.Reference ~cache_cfg:cache_16k ~trace:ft_ref tr
  in
  let f_pre = Stepped.fits ~cache_cfg:cache_16k ~trace:ft_pre tr in
  let f_cmp =
    FR.run ~engine:FR.Compiled ~cache_cfg:cache_16k ~trace:ft_cmp tr
  in
  check_fits (name ^ "/fits/16k/pre") ~oracle:"reference" f_ref f_pre;
  check_fits (name ^ "/fits/16k/cmp") ~oracle:"reference" f_ref f_cmp;
  let f_ref8 = FR.replay ~cache_cfg:cache_8k ~like:f_ref tr ft_ref in
  let f_pre8 = FR.replay ~cache_cfg:cache_8k ~like:f_pre tr ft_pre in
  let f_cmp8 = FR.replay ~cache_cfg:cache_8k ~like:f_cmp tr ft_cmp in
  check_fits (name ^ "/fits/8k/pre") ~oracle:"reference" f_ref8 f_pre8;
  check_fits (name ^ "/fits/8k/cmp") ~oracle:"reference" f_ref8 f_cmp8

let tests =
  List.map
    (fun (b : R.benchmark) ->
      Alcotest.test_case
        ("ref=pre=cmp: " ^ b.R.name)
        `Quick (test_benchmark b))
    R.all
