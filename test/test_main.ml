let () =
  Alcotest.run "daisy"
    [
      ("support", Test_support.suite);
      ("pool", Test_pool.suite);
      ("interp", Test_interp.suite);
      ("poly", Test_poly.suite);
      ("lang", Test_lang.suite);
      ("loopir", Test_loopir.suite);
      ("dependence", Test_dependence.suite);
      ("normalize", Test_normalize.suite);
      ("transforms", Test_transforms.suite);
      ("machine", Test_machine.suite);
      ("trace", Test_trace.suite);
      ("bytecode", Test_bytecode.suite);
      ("idioms", Test_idioms.suite);
      ("lift", Test_lift.suite);
      ("arraylang", Test_arraylang.suite);
      ("scheduler", Test_scheduler.suite);
      ("ann", Test_ann.suite);
      ("shardstore", Test_shardstore.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("property", Test_property.suite);
      ("parallel", Test_parallel.suite);
      ("extensions", Test_extensions.suite);
      ("robustness", Test_robustness.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("resume", Test_resume.suite);
      ("serve", Test_serve.suite);
    ]
