(* Quickstart: the whole PowerFITS pipeline on a small program.

   Write a kernel in the KIR DSL, compile it to the ARM-like ISA, profile
   it, synthesize an application-specific 16-bit FITS ISA, translate the
   binary, and simulate both on the SA-1100-like core — comparing code
   size, fetch traffic and I-cache power.

     dune exec examples/quickstart.exe *)

let dot_product =
  let open Pf_kir.Build in
  program
    [ garray "a" W32 256; garray "b" W32 256 ]
    [
      func "fill" []
        [
          let_ "seed" (i 1);
          for_ "k" (i 0) (i 256)
            [
              set "seed" (v "seed" *% i 75 +% i 74);
              setidx32 "a" (v "k") (band (v "seed") (i 0xFFF));
              setidx32 "b" (v "k") (band (shr (v "seed") (i 4)) (i 0xFFF));
            ];
        ];
      func "dot" [ "n" ]
        [
          let_ "acc" (i 0);
          for_ "k" (i 0) (v "n")
            [
              set "acc"
                (v "acc" +% idx32 "a" (v "k") *% idx32 "b" (v "k"));
            ];
          ret (v "acc");
        ];
      func "main" []
        [
          do_ "fill" [];
          (* run the kernel a few times so the dynamic profile is loopy *)
          let_ "sum" (i 0);
          for_ "rep" (i 0) (i 64)
            [ set "sum" (bxor (v "sum") (call "dot" [ i 256 ])) ];
          print_int (v "sum");
        ];
    ]

let () =
  (* 1. compile to the 32-bit ARM-like ISA *)
  let image = Pf_armgen.Compile.program dot_product in
  Printf.printf "ARM code size: %d bytes\n"
    (Pf_arm.Image.code_size_bytes image);

  (* 2. profile one run (static + dynamic requirements, paper Fig. 1) *)
  let dyn_counts, output = Pf_fits.Synthesis.dyn_counts_of_run image in
  let profile = Pf_fits.Profile.of_image_counts image ~counts:dyn_counts in
  Printf.printf "program output: %s" output;
  Printf.printf "dynamic instructions: %d\n\n" profile.Pf_fits.Profile.dyn_insns;

  (* 3. synthesize the application-specific 16-bit instruction set *)
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  Printf.printf "synthesized %d application-specific opcodes; %s\n"
    (List.length syn.Pf_fits.Synthesis.ais)
    (String.concat ", "
       (List.map (fun (o : Pf_fits.Spec.opdef) -> o.Pf_fits.Spec.name)
          syn.Pf_fits.Synthesis.ais));

  (* 4. translate the ARM binary to the synthesized ISA *)
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  Printf.printf "static 1-to-1 mapping: %.1f%%\n"
    (Pf_fits.Translate.static_mapping_rate tr);
  Printf.printf "FITS code size: %d bytes (%.1f%% smaller)\n\n"
    tr.Pf_fits.Translate.stats.Pf_fits.Translate.code_bytes_fits
    (Pf_fits.Translate.code_size_saving tr);

  (* 5. simulate both on the same 16 KB I-cache core *)
  let arm = Pf_cpu.Arm_run.run image in
  let fits = Pf_fits.Run.run tr in
  let show name ~fetches ~(p : Pf_power.Account.report) ~cycles =
    Printf.printf "%-6s fetch accesses %-9d cycles %-9d cache energy %.3g\n"
      name fetches cycles p.Pf_power.Account.total
  in
  show "ARM16" ~fetches:arm.Pf_cpu.Arm_run.fetch_accesses
    ~p:arm.Pf_cpu.Arm_run.power ~cycles:arm.Pf_cpu.Arm_run.cycles;
  show "FITS16" ~fetches:fits.Pf_fits.Run.fetch_accesses
    ~p:fits.Pf_fits.Run.power ~cycles:fits.Pf_fits.Run.cycles;
  let saving =
    Pf_util.Stats.saving
      ~baseline:arm.Pf_cpu.Arm_run.power.Pf_power.Account.switching
      fits.Pf_fits.Run.power.Pf_power.Account.switching
  in
  Printf.printf "\nI-cache switching power saving: %.1f%%\n" saving;
  assert (fits.Pf_fits.Run.output = arm.Pf_cpu.Arm_run.output)
