(* The property checkers themselves must detect violations: feed them
   hand-crafted traces. *)

let t = Alcotest.test_case

let topo = Topology.create ~n:4 [ Pset.of_list [ 0; 1 ]; Pset.of_list [ 1; 2 ] ]

let workload = Workload.make [ (0, 0, 0); (2, 1, 0) ] topo

let outcome_of_events events =
  {
    Runner.topo;
    workload;
    fp = Failure_pattern.never ~n:4;
    variant = Algorithm1.Vanilla;
    trace = Trace.make ~n:4 events;
    stats = { Engine.steps = Array.make 4 0; executed = 0; ticks_used = 0; quiescent = true };
    snapshots = [];
    final_logs = [];
    consensus_instances = 0;
    consensus_rounds = 0;
    links = Channel_fault.stats_zero;
  }

let ev_invoke m p seq = Trace.Invoke { m; p; time = seq; seq }
let ev_deliver m p seq = Trace.Deliver { m; p; time = seq; seq }

let detects_double_delivery () =
  let o =
    outcome_of_events
      [ ev_invoke 0 0 0; ev_deliver 0 0 1; ev_deliver 0 0 2 ]
  in
  Alcotest.(check bool) "caught" true (Properties.integrity o <> Ok ())

let detects_delivery_outside_dst () =
  let o = outcome_of_events [ ev_invoke 0 0 0; ev_deliver 0 3 1 ] in
  Alcotest.(check bool) "caught" true (Properties.integrity o <> Ok ())

let detects_delivery_before_multicast () =
  let o = outcome_of_events [ ev_deliver 0 0 0; ev_invoke 0 0 1 ] in
  Alcotest.(check bool) "caught" true (Properties.integrity o <> Ok ())

let detects_missing_delivery () =
  (* invoked by a correct source, delivered nowhere *)
  let o = outcome_of_events [ ev_invoke 0 0 0 ] in
  Alcotest.(check bool) "caught" true (Properties.termination o <> Ok ());
  (* delivered at one member only: still a termination violation *)
  let o = outcome_of_events [ ev_invoke 0 0 0; ev_deliver 0 0 1 ] in
  Alcotest.(check bool) "partial delivery caught" true (Properties.termination o <> Ok ())

let detects_delivery_cycle () =
  (* p1 ∈ g0∩g1 delivers m0 then m1... and m1 before m0 via a second
     shared process is impossible here, so build the 2-message cycle on
     one group: p0 orders m0,m1 while p1 orders m1,m0. *)
  let topo = Topology.create ~n:2 [ Pset.of_list [ 0; 1 ] ] in
  let workload = Workload.make [ (0, 0, 0); (1, 0, 0) ] topo in
  let o =
    {
      (outcome_of_events []) with
      Runner.topo;
      workload;
      fp = Failure_pattern.never ~n:2;
      trace =
        Trace.make ~n:2
          [
            ev_invoke 0 0 0;
            ev_invoke 1 1 1;
            ev_deliver 0 0 2;
            ev_deliver 1 1 3;
            ev_deliver 1 0 4;
            ev_deliver 0 1 5;
          ];
    }
  in
  Alcotest.(check bool) "cycle caught" true (Properties.ordering o <> Ok ());
  Alcotest.(check bool) "pairwise violation caught" true
    (Properties.pairwise_ordering o <> Ok ())

let detects_strict_violation () =
  (* m0 delivered everywhere before m1 is multicast, yet p1 delivers m1
     first. *)
  let o =
    outcome_of_events
      [
        ev_invoke 0 0 0;
        ev_deliver 0 0 1;
        ev_invoke 1 2 2;
        ev_deliver 1 1 3;
        ev_deliver 0 1 4;
        ev_deliver 1 2 5;
      ]
  in
  Alcotest.(check bool) "↝ cycle caught" true (Properties.strict_ordering o <> Ok ());
  Alcotest.(check bool) "plain ordering fine" true (Properties.ordering o = Ok ())

(* The ordering checks decide acyclicity on per-process delivery chains
   and confirm a cycle through the exact pair lists: these cycles close
   only through edges the chains leave implicit, and the failure string
   must still be the reference checker's. *)
let one_group_outcome ~msgs events =
  let topo = Topology.create ~n:2 [ Pset.of_list [ 0; 1 ] ] in
  {
    (outcome_of_events []) with
    Runner.topo;
    workload = Workload.make (List.init msgs (fun _ -> (0, 0, 0))) topo;
    fp = Failure_pattern.never ~n:2;
    trace = Trace.make ~n:2 events;
  }

let check_cycle name check reference o =
  Alcotest.(check bool) (name ^ " caught") true (check o <> Ok ());
  Alcotest.(check (result unit string)) (name ^ " witness") (reference o) (check o)

let detects_non_consecutive_cycle () =
  (* m0 ↦ m2 only through m1 in p0's chain; p1 closes it with m2 ↦ m0 *)
  let o =
    one_group_outcome ~msgs:3
      [
        ev_invoke 0 0 0; ev_invoke 1 0 1; ev_invoke 2 0 2;
        ev_deliver 0 0 3; ev_deliver 1 0 4; ev_deliver 2 0 5;
        ev_deliver 2 1 6; ev_deliver 0 1 7;
      ]
  in
  check_cycle "ordering" Properties.ordering Properties_ref.ordering o

let detects_undelivered_cycle () =
  (* p0 delivers m0 but never m1, p1 delivers m1 but never m0 *)
  let o =
    one_group_outcome ~msgs:2
      [ ev_invoke 0 0 0; ev_invoke 1 1 1; ev_deliver 0 0 2; ev_deliver 1 1 3 ]
  in
  check_cycle "ordering" Properties.ordering Properties_ref.ordering o

let detects_realtime_only_cycle () =
  (* Three pairwise-intersecting groups; ↦ is m1 ↦ m2 ↦ m0 and m1 ↦ m0,
     acyclic, but m0 is delivered at p0 before m1 is multicast. *)
  let topo =
    Topology.create ~n:3
      [ Pset.of_list [ 0; 1 ]; Pset.of_list [ 1; 2 ]; Pset.of_list [ 0; 2 ] ]
  in
  let o =
    {
      (outcome_of_events []) with
      Runner.topo;
      workload = Workload.make [ (0, 0, 0); (1, 1, 0); (0, 2, 0) ] topo;
      fp = Failure_pattern.never ~n:3;
      variant = Algorithm1.Strict;
      trace =
        Trace.make ~n:3
          [
            ev_invoke 2 0 0; ev_invoke 0 0 1;
            ev_deliver 2 0 2; ev_deliver 0 0 3;
            ev_invoke 1 1 4;
            ev_deliver 1 1 5; ev_deliver 0 1 6;
            ev_deliver 1 2 7; ev_deliver 2 2 8;
          ];
    }
  in
  Alcotest.(check bool) "↦ alone acyclic" true (Properties.ordering o = Ok ());
  check_cycle "strict ordering" Properties.strict_ordering
    Properties_ref.strict_ordering o

let accepts_long_in_order_run () =
  (* 2000 messages delivered in invoke order at both members: linear
     work for the chains, where the pair lists hold two million pairs. *)
  let msgs = 2000 in
  let events =
    List.concat
      (List.init msgs (fun m ->
           [ ev_invoke m 0 (3 * m); ev_deliver m 0 ((3 * m) + 1); ev_deliver m 1 ((3 * m) + 2) ]))
  in
  let o = one_group_outcome ~msgs events in
  Alcotest.(check (result unit string)) "ordering" (Ok ()) (Properties.ordering o);
  Alcotest.(check (result unit string)) "strict ordering" (Ok ())
    (Properties.strict_ordering o)

let detects_non_minimality () =
  let o = outcome_of_events [] in
  o.Runner.stats.Engine.steps.(3) <- 5;
  Alcotest.(check bool) "caught" true (Properties.minimality o <> Ok ())

let find_cycle_works () =
  Alcotest.(check (option (list int))) "no cycle" None
    (Properties.find_cycle [ (1, 2); (2, 3) ]);
  (match Properties.find_cycle [ (1, 2); (2, 3); (3, 1) ] with
  | Some c -> Alcotest.(check int) "cycle length" 3 (List.length c)
  | None -> Alcotest.fail "missed the cycle");
  Alcotest.(check bool) "self loop" true
    (Properties.find_cycle [ (1, 1) ] <> None)

let accepts_good_run () =
  let fp = Failure_pattern.never ~n:4 in
  let o = Runner.run ~topo ~fp ~workload () in
  match Properties.check_all o with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let suite =
  [
    t "detects double delivery" `Quick detects_double_delivery;
    t "detects delivery outside dst" `Quick detects_delivery_outside_dst;
    t "detects delivery before multicast" `Quick detects_delivery_before_multicast;
    t "detects missing delivery" `Quick detects_missing_delivery;
    t "detects ↦ cycles" `Quick detects_delivery_cycle;
    t "detects ↝ violations" `Quick detects_strict_violation;
    t "detects ↦ cycles through non-consecutive deliveries" `Quick
      detects_non_consecutive_cycle;
    t "detects ↦ cycles through never-delivered messages" `Quick
      detects_undelivered_cycle;
    t "detects cycles only ↝ closes" `Quick detects_realtime_only_cycle;
    t "accepts 2000 in-order deliveries" `Quick accepts_long_in_order_run;
    t "detects non-minimality" `Quick detects_non_minimality;
    t "cycle finder" `Quick find_cycle_works;
    t "accepts a correct run" `Quick accepts_good_run;
  ]
