(* The enablement cache and the ~enabled engine hint are pure pruning:
   they may only skip step calls that would have returned false. These
   tests pin that claim end to end — the optimized stepper must produce
   an event-for-event identical trace AND identical engine statistics
   (per-process step counts, total executed, ticks, quiescence) as the
   reference stepper (enablement_cache:false), for every committed
   corpus scenario and for a fresh generated sweep, both sequentially
   and under the domain pool. The corpus loop also runs six loadgen
   cases (batching, pipelining, a crash, delayed channels) and checks
   every optimized trace for structural well-formedness. *)

let t = Alcotest.test_case

let event_to_string e = Format.asprintf "%a" Trace.pp_event e

(* None = identical; Some msg = first divergence, described. *)
let divergence (reference : Runner.outcome) (optimized : Runner.outcome) =
  let rt = reference.Runner.trace and ot = optimized.Runner.trace in
  let rs = reference.Runner.stats and os = optimized.Runner.stats in
  let rec first_diff i = function
    | [], [] -> None
    | e :: _, [] | [], e :: _ ->
        Some
          (Printf.sprintf "event %d: one trace ends, other has %s" i
             (event_to_string e))
    | e :: es, e' :: es' ->
        if e = e' then first_diff (i + 1) (es, es')
        else
          Some
            (Printf.sprintf "event %d: reference %s vs optimized %s" i
               (event_to_string e) (event_to_string e'))
  in
  match first_diff 0 (rt.Trace.events, ot.Trace.events) with
  | Some _ as d -> d
  | None ->
      if rs.Engine.steps <> os.Engine.steps then
        Some "per-process step counts differ"
      else if rs.Engine.executed <> os.Engine.executed then
        Some
          (Printf.sprintf "executed: %d vs %d" rs.Engine.executed
             os.Engine.executed)
      else if rs.Engine.ticks_used <> os.Engine.ticks_used then
        Some
          (Printf.sprintf "ticks: %d vs %d" rs.Engine.ticks_used
             os.Engine.ticks_used)
      else if rs.Engine.quiescent <> os.Engine.quiescent then
        Some "quiescence flags differ"
      else if
        reference.Runner.consensus_instances
        <> optimized.Runner.consensus_instances
      then Some "consensus instance counts differ"
      else None

let event_fields = function
  | Trace.Invoke { m; p; seq; _ }
  | Trace.Send { m; p; seq; _ }
  | Trace.Phase_change { m; p; seq; _ }
  | Trace.Deliver { m; p; seq; _ } ->
      (m, p, seq)

(* The [Trace] invariants: dense ascending sequence numbers, ids in
   range, monotone per-(process, message) phase ranks, invocation
   before first delivery, deliveries only at destination members. *)
let well_formed name (o : Runner.outcome) =
  let trace = o.Runner.trace and topo = o.Runner.topo in
  let n = Topology.n topo in
  List.iteri
    (fun i e ->
      let m, p, seq = event_fields e in
      if seq <> i then
        Alcotest.failf "%s: event %d has seq %d (not dense)" name i seq;
      if p < 0 || p >= n then Alcotest.failf "%s: event %d pid %d" name i p;
      if m < 0 then Alcotest.failf "%s: event %d msg %d" name i m)
    trace.Trace.events;
  List.iter
    (fun { Workload.msg; _ } ->
      let m = msg.Amsg.id in
      for p = 0 to n - 1 do
        let rec mono = function
          | a :: (b :: _ as rest) ->
              if a > b then
                Alcotest.failf "%s: phase rank drops at p%d m%d" name p m
              else mono rest
          | _ -> ()
        in
        mono (List.map Trace.phase_rank (Trace.phase_history trace ~p ~m))
      done;
      (match (Trace.invoke_seq trace ~m, Trace.first_delivery_seq trace ~m) with
      | Some i, Some d when i >= d ->
          Alcotest.failf "%s: m%d delivered (seq %d) before invoked (seq %d)"
            name m d i
      | None, Some _ -> Alcotest.failf "%s: m%d delivered, never invoked" name m
      | _ -> ());
      let members = Topology.group topo msg.Amsg.dst in
      List.iter
        (fun (p, m', _, _) ->
          if m' = m && not (Pset.mem p members) then
            Alcotest.failf "%s: m%d delivered at non-member p%d" name m p)
        (Trace.deliveries trace))
    o.Runner.workload

(* Loadgen traffic over the bench topologies, crossed with engine modes,
   a crash and delayed channels. Each case runs a stepper through
   [Runner.run], with the enablement cache on or off. *)
let generated_cases () =
  let mk name topo ~crashes ~rate ~skew ~duration ~batching ~pipelining
      ~faults seed =
    let workload =
      Loadgen.open_loop ~rng:(Rng.make (200 + seed)) ~rate_pct:rate
        ~skew_pct:skew ~duration topo
    in
    let fp = Failure_pattern.of_crashes ~n:(Topology.n topo) crashes in
    ( name,
      fun ~enablement_cache ->
        Runner.run ~seed ~enablement_cache ~batching ~pipelining ~faults ~topo
          ~fp ~workload () )
  in
  let delayed = { Channel_fault.none with Channel_fault.delay = 3 } in
  [
    mk "disjoint-4x3" (Topology.disjoint ~groups:4 ~size:3) ~crashes:[]
      ~rate:150 ~skew:0 ~duration:16 ~batching:false ~pipelining:false
      ~faults:Channel_fault.none 1;
    mk "disjoint-6x2-modes"
      (Topology.disjoint ~groups:6 ~size:2)
      ~crashes:[] ~rate:250 ~skew:100 ~duration:12 ~batching:true
      ~pipelining:true ~faults:Channel_fault.none 2;
    mk "ring-4-modes" (Topology.ring ~groups:4) ~crashes:[] ~rate:120 ~skew:0
      ~duration:12 ~batching:true ~pipelining:true ~faults:Channel_fault.none 3;
    mk "ring-5-crash" (Topology.ring ~groups:5)
      ~crashes:[ (1, 8) ]
      ~rate:100 ~skew:0 ~duration:10 ~batching:false ~pipelining:false
      ~faults:Channel_fault.none 4;
    mk "chain-4-delay" (Topology.chain ~groups:4) ~crashes:[] ~rate:150
      ~skew:50 ~duration:12 ~batching:false ~pipelining:false ~faults:delayed 5;
    mk "star-3-batched" (Topology.star ~satellites:3 ~hub_size:3) ~crashes:[]
      ~rate:150 ~skew:100 ~duration:10 ~batching:true ~pipelining:false
      ~faults:Channel_fault.none 6;
  ]

let corpus_identity () =
  let entries = Corpus.load ~dir:"../corpus" in
  if List.length entries < 4 then
    Alcotest.failf "corpus too small (%d scenarios)" (List.length entries);
  let corpus =
    List.map
      (fun (name, decoded) ->
        match decoded with
        | Error e -> Alcotest.failf "%s does not decode: %s" name e
        | Ok s ->
            (name, fun ~enablement_cache -> Scenario.run ~enablement_cache s))
      entries
  in
  List.iter
    (fun (name, run) ->
      let optimized = run ~enablement_cache:true in
      (match divergence (run ~enablement_cache:false) optimized with
      | None -> ()
      | Some d -> Alcotest.failf "%s: %s" name d);
      well_formed name optimized)
    (corpus @ generated_cases ())

(* 200 fresh generated scenarios, checked through the domain pool at
   jobs=1 and jobs=4 — the same indices the fuzz driver would farm
   out, so cache state is also exercised from worker domains. *)
let fuzz_identity jobs () =
  let trials = 200 in
  let results =
    Domain_pool.map ~jobs trials (fun i ->
        let s = Fuzz_driver.scenario_of_trial ~seed:7 Scenario_gen.default i in
        match
          divergence (Scenario.run ~enablement_cache:false s) (Scenario.run s)
        with
        | None -> None
        | Some d -> Some (Printf.sprintf "trial %d: %s" i d))
  in
  let divergent = Array.to_list results |> List.filter_map Fun.id in
  Alcotest.(check (list string)) "divergent events" [] divergent

let suite =
  [
    t "corpus: optimized trace = reference trace" `Quick corpus_identity;
    t "fuzz sweep identical (jobs=1)" `Slow (fuzz_identity 1);
    t "fuzz sweep identical (jobs=4)" `Slow (fuzz_identity 4);
  ]
