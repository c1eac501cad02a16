let () =
  Alcotest.run "powerfits"
    [
      ("util", Test_util.tests);
      ("encode", Test_encode.tests);
      ("exec", Test_exec.tests);
      ("kir", Test_kir.tests);
      ("compile", Test_compile.tests);
      ("random-programs", Test_random_programs.tests);
      ("cache", Test_cache.tests);
      ("power", Test_power.tests);
      ("pipeline", Test_pipeline.tests);
      ("translate", Test_translate.tests);
      ("thumb", Test_thumb.tests);
      ("mibench", Test_mibench.tests);
      ("armgen-units", Test_armgen_units.tests);
      ("gen", Test_gen.tests);
      ("expr-sweep", Test_exprsweep.tests);
      ("fits-units", Test_fits_units.tests);
      ("harness", Test_harness.tests);
      ("parallel", Test_parallel.tests);
      ("fault", Test_fault.tests);
      ("fits", Test_fits.tests);
      ("synthesis", Test_synthesis.tests);
      ("multi", Test_multi.tests);
      ("alloc", Test_alloc.tests);
      ("dse", Test_dse.tests);
      ("differential", Test_differential.tests);
      ("serve", Test_serve.tests);
      ("workgen", Test_workgen.tests);
      ("mc", Test_mc.tests);
    ]
