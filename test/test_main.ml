(* Aggregates every suite; run with `dune runtest`. *)

let experiments_sanity () =
  (* Cheap sections only — table1/scaling run in the bench harness. *)
  List.iter
    (fun (name, f) ->
      let s = f () in
      if String.length s < 40 then
        Alcotest.failf "experiment %s produced no output" name;
      if
        (* a violation marker outside the rows that expect one *)
        name = "figure2" || name = "figure45"
      then
        if
          String.length s >= 8
          &&
          let re = Str.regexp_string "VIOLATED" in
          (try ignore (Str.search_forward re s 0); true with Not_found -> false)
        then Alcotest.failf "unexpected violation in %s" name)
    [
      ("figure1", Experiments.figure1);
      ("figure2", Experiments.figure2);
      ("figure45", Experiments.figure45);
      ("prop47", Experiments.prop47);
      ("necessity", Experiments.necessity);
    ]

let () =
  Alcotest.run "repro"
    [
      ("pset", Test_pset.suite);
      ("domain pool", Test_domain_pool.suite);
      ("core units", Test_core_units.suite);
      ("topology", Test_topology.suite);
      ("detectors", Test_detectors.suite);
      ("objects & engine", Test_objects.suite);
      ("algorithm 1", Test_algorithm1.suite);
      ("robustness", Test_robustness.suite);
      ("checker", Test_checker.suite);
      ("baselines", Test_baselines.suite);
      ("necessity emulations", Test_emulation.suite);
      ("substrate", Test_substrate.suite);
      ("cht", Test_cht.suite);
      ("fuzz", Test_fuzz.suite);
      ("faults", Test_faults.suite);
      ("explore", Test_explore.suite);
      ("trace identity", Test_trace_identity.suite);
      ("trace index", Test_trace_index.suite);
      ("checker identity", Test_checker_identity.suite);
      ("loadgen", Test_loadgen.suite);
      ("throughput identity", Test_throughput_identity.suite);
      ("experiments", [ Alcotest.test_case "sections render" `Quick experiments_sanity ]);
    ]
