let () =
  Alcotest.run "ddg"
    [ ("isa", Test_isa.tests);
      ("asm", Test_asm.tests);
      ("sim", Test_sim.tests);
      ("minic", Test_minic.tests);
      ("optimize", Test_optimize.tests);
      ("fuzz", Test_fuzz.tests);
      ("paragraph", Test_paragraph.tests);
      ("resources", Test_resources.tests);
      ("workloads", Test_workloads.tests);
      ("report", Test_report.tests);
      ("experiments", Test_experiments.tests);
      ("store", Test_store.tests);
      ("jobs", Test_jobs.tests);
      ("fault", Test_fault.tests);
      ("protocol", Test_protocol.tests);
      ("server", Test_server.tests);
      ("chaos", Test_chaos.tests);
      ("properties", Test_props.tests);
      ("obs", Test_obs.tests);
      ("cluster", Test_cluster.tests);
      ("advise", Test_advise.tests);
      ("zerocopy", Test_zerocopy.tests) ]
