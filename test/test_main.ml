let () =
  Alcotest.run "dht_rcm"
    [
      ("numerics", Test_numerics.suite);
      ("prng", Test_prng.suite);
      ("exec", Test_exec.suite);
      ("resilience", Test_resilience.suite);
      ("obs", Test_obs.suite);
      ("trace-report", Test_trace_report.suite);
      ("idspace", Test_idspace.suite);
      ("stats", Test_stats.suite);
      ("graph", Test_graph.suite);
      ("markov", Test_markov.suite);
      ("rcm", Test_rcm.suite);
      ("overlay", Test_overlay.suite);
      ("routing", Test_routing.suite);
      ("sim", Test_sim.suite);
      ("experiments", Test_experiments.suite);
      ("replication", Test_replication.suite);
      ("sparse", Test_sparse.suite);
      ("sparse-golden", Test_sparse_golden.suite);
      ("churn-golden", Test_churn_golden.suite);
      ("churn", Test_churn.suite);
      ("latency", Test_latency.suite);
      ("experiments-extended", Test_experiments_extended.suite);
      ("digits", Test_digits.suite);
      ("torus", Test_torus.suite);
      ("symphony-deployment", Test_symphony_deployment.suite);
      ("geom", Test_geom.suite);
      ("flat", Test_flat.suite);
      ("lanes", Test_lanes.suite);
      ("batch", Test_batch.suite);
      ("storage", Test_storage.suite);
      ("loadmap", Test_loadmap.suite);
      ("cli", Test_cli.suite);
    ]
