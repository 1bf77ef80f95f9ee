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

(* Backlog: hundreds of messages queued at one group, where admission,
   wake keys and frontier walks do the work (the cases above hold at
   most about 40 messages). Each case must invoke and deliver every
   message, and is checked against the reference stepper twice:
   through [Runner.run], and by a plain round-robin drive whose state
   is copied a third of the way in — the original, the copy and the
   reference must then record the same events. *)
let backlog_cases () =
  let one = Topology.disjoint ~groups:1 ~size:3 in
  let open_loop ?(topo = one) ~rate ~duration seed =
    Loadgen.open_loop ~rng:(Rng.make seed) ~rate_pct:rate ~skew_pct:50
      ~duration topo
  in
  let delayed = { Channel_fault.none with Channel_fault.delay = 3 } in
  (* The driver keeps its chain cursors: one fresh driver per run. *)
  let closed () =
    Loadgen.closed_loop ~rng:(Rng.make 4) ~clients:4 ~msgs_per_client:30
      ~skew_pct:0 one
  in
  let mk ?(topo = one) ?(variant = Algorithm1.Vanilla) ?(batching = false)
      ?(pipelining = false) ?(faults = Channel_fault.none) ?driver ?horizon
      ?(seed = 3) name workload =
    ( name,
      topo,
      variant,
      (batching, pipelining, faults),
      (driver, horizon, seed),
      workload )
  in
  [
    mk "open loop 400 msgs" (open_loop ~rate:400 ~duration:100 1);
    mk "open loop 400 msgs, batched+pipelined" ~batching:true ~pipelining:true
      (open_loop ~rate:400 ~duration:100 2);
    (* An explicit horizon: the default one is computed from arrival
       ticks, and unreleased links arrive at [Workload.never]. *)
    mk "closed loop, released mid-run"
      ~driver:(fun () -> snd (closed ()))
      ~horizon:2000
      (fst (closed ()));
    mk "delayed channels backlog" ~faults:delayed
      (open_loop ~rate:400 ~duration:50 3);
    (* Overlapping groups, batched: a fire early in a pass may enable a
       message with a higher id in the same sweep. *)
    mk "ring-6 batched+pipelined pairwise" ~topo:(Topology.ring ~groups:6)
      ~variant:Algorithm1.Pairwise ~batching:true ~pipelining:true ~seed:2
      (open_loop ~topo:(Topology.ring ~groups:6) ~rate:400 ~duration:40 102);
  ]

let backlog_identity () =
  List.iter
    (fun ( name,
           topo,
           variant,
           (batching, pipelining, faults),
           (driver, horizon, seed),
           workload ) ->
      let n = Topology.n topo in
      let fp = Failure_pattern.never ~n in
      let run enablement_cache =
        Runner.run ~variant ~seed ~enablement_cache ~batching ~pipelining
          ~faults ?driver:(Option.map (fun d -> d ()) driver)
          ?horizon ~topo ~fp ~workload ()
      in
      let optimized = run true in
      if
        List.length (Trace.invoked optimized.Runner.trace)
        <> List.length workload
        || not (Runner.deliveries_complete optimized)
      then Alcotest.failf "%s: not every message was invoked and delivered" name;
      (match divergence (run false) optimized with
      | None -> ()
      | Some d -> Alcotest.failf "%s: %s" name d);
      well_formed name optimized;
      let mu = Mu.make ~seed topo fp in
      let create enablement_cache =
        Algorithm1.create ~variant ~enablement_cache ~batching ~pipelining
          ~faults ~fault_seed:seed ~topo ~mu ~workload ()
      in
      let drive ?driver st ~from ~upto =
        for time = from to upto do
          Option.iter (fun d -> d st ~time) driver;
          for pid = 0 to n - 1 do
            if Algorithm1.enabled st ~pid ~time then
              ignore (Algorithm1.step st ~pid ~time)
          done
        done
      in
      let horizon = optimized.Runner.stats.Engine.ticks_used + 10 in
      let events st = (Algorithm1.trace st).Trace.events in
      let fresh () = Option.map (fun d -> d ()) driver in
      let reference = create false in
      drive ?driver:(fresh ()) reference ~from:0 ~upto:horizon;
      (* A driver keeps state the copy does not carry: [d2] reaches the
         cut at the same chain cursors as [d1] by driving a second state
         there, and then drives the copy. *)
      let st = create true and d1 = fresh () and d2 = fresh () in
      drive ?driver:d1 st ~from:0 ~upto:(horizon / 3);
      drive ?driver:d2 (create true) ~from:0 ~upto:(horizon / 3);
      let copied = Algorithm1.copy st in
      drive ?driver:d1 st ~from:((horizon / 3) + 1) ~upto:horizon;
      drive ?driver:d2 copied ~from:((horizon / 3) + 1) ~upto:horizon;
      if events st <> events reference then
        Alcotest.failf "%s: drive differs from the reference" name;
      if events copied <> events reference then
        Alcotest.failf "%s: mid-run copy differs from the reference" name)
    (backlog_cases ())

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
    t "backlog: optimized = reference, mid-run copy" `Quick backlog_identity;
    t "fuzz sweep identical (jobs=1)" `Slow (fuzz_identity 1);
    t "fuzz sweep identical (jobs=4)" `Slow (fuzz_identity 4);
  ]
