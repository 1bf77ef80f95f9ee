(* The traced run's re-composition of the library's entry points from
   their public parts, with a span around every call into a layer.
   Each function here mirrors one library function line for line
   ([Runner.run], [Scenario.run], [Scenario.check], [Properties.all]),
   so the traced run executes the same program as the untraced one; the
   identity check in [Workloads] holds it to that. *)

let snapshot_of st =
  List.map
    (fun key -> (key, Algorithm1.log_snapshot st key))
    (Algorithm1.log_keys st)

(* Runner.run, with the stepper's [step] and [enabled] closures wrapped
   in monotonic-clock sums: single calls take microseconds, too short
   and too many for one span each. *)
let runner sp ?(variant = Algorithm1.Vanilla) ~seed ?horizon ?mu ?scheduled
    ?batching ?pipelining ?(faults = Channel_fault.none)
    ?(record_snapshots = false) ~topo ~fp ~workload () =
  let mu =
    match mu with
    | Some m -> m
    | None -> Spans.with_span sp "fd.mu_make" (fun () -> Mu.make ~seed topo fp)
  in
  let horizon =
    match horizon with
    | Some h -> h
    | None ->
        Runner.default_horizon workload fp
        + ((List.length workload + 1) * Channel_fault.latency_bound faults)
  in
  let st =
    Spans.with_span sp "core.create" (fun () ->
        Algorithm1.create ~variant ?batching ?pipelining ~faults
          ~fault_seed:seed ~topo ~mu ~workload ())
  in
  let snapshots = ref [] in
  let snap_ns = ref 0 and snaps = ref 0 in
  let on_tick t =
    if record_snapshots then begin
      let t0 = Spans.now_ns () in
      snapshots := (t, snapshot_of st) :: !snapshots;
      snap_ns := !snap_ns + (Spans.now_ns () - t0);
      incr snaps
    end
  in
  let max_at =
    List.fold_left (fun acc r -> max acc r.Workload.at) 0 workload
  in
  let quiesce_after =
    match scheduled with
    | None -> max_at + Failure_pattern.max_crash_time fp + 30
    | Some _ -> horizon
  in
  let step_ns = ref 0 and step_calls = ref 0 and hits = ref 0 in
  let step ~pid ~time =
    let t0 = Spans.now_ns () in
    let r = Algorithm1.step st ~pid ~time in
    step_ns := !step_ns + (Spans.now_ns () - t0);
    incr step_calls;
    if r then incr hits;
    r
  in
  let en_ns = ref 0 and en_calls = ref 0 and skips = ref 0 in
  let enabled ~pid ~time =
    let t0 = Spans.now_ns () in
    let r = Algorithm1.enabled st ~pid ~time in
    en_ns := !en_ns + (Spans.now_ns () - t0);
    incr en_calls;
    if not r then incr skips;
    r
  in
  let stats =
    Spans.with_span sp "sim.engine" (fun () ->
        (* Gc.counters reads the calling domain's own allocation, so
           this is exact on pool workers too. *)
        let minor0, promoted0, _ = Gc.counters () in
        let stats =
          Engine.run ~fp ~horizon ~quiesce_after
            ~live_until:(fun () -> Algorithm1.visibility_horizon st)
            ~seed ?scheduled ~on_tick ~enabled ~step ()
        in
        let minor1, promoted1, _ = Gc.counters () in
        Spans.add_sum sp "core.step" ~ns:!step_ns ~calls:!step_calls;
        Spans.add_sum sp "core.enabled" ~ns:!en_ns ~calls:!en_calls;
        Spans.add_sum sp "runner.snapshot" ~ns:!snap_ns ~calls:!snaps;
        Spans.count sp "core.minor_words" (int_of_float (minor1 -. minor0));
        Spans.count sp "core.promoted_words"
          (int_of_float (promoted1 -. promoted0));
        stats)
  in
  Spans.with_span sp "runner.collect" @@ fun () ->
  let links = Algorithm1.link_stats st in
  let trace = Algorithm1.trace st in
  List.iter
    (fun (name, k) -> Spans.count sp name k)
    [
      ("core.runs", 1);
      ("core.msgs", List.length workload);
      ("core.step_calls", !step_calls);
      ("core.steps_executed", !hits);
      ("core.enabled_calls", !en_calls);
      ("core.enabled_skips", !skips);
      ("core.consensus_instances", Algorithm1.consensus_instances st);
      ("core.consensus_rounds", Algorithm1.consensus_rounds st);
      ("sim.ticks", stats.Engine.ticks_used);
      ("trace.events", Algorithm1.event_seq st);
      ("net.sent", links.Channel_fault.sent);
      ("net.dropped", links.dropped);
      ("net.duplicated", links.duplicated);
      ("net.retransmissions", links.retransmissions);
      ("net.lost", links.lost);
    ];
  {
    Runner.topo;
    workload;
    fp;
    variant;
    trace;
    stats;
    snapshots = List.rev !snapshots;
    final_logs = snapshot_of st;
    consensus_instances = Algorithm1.consensus_instances st;
    consensus_rounds = Algorithm1.consensus_rounds st;
    links;
  }

(* The first accessor call on a fresh trace builds its whole index;
   the checkers then find it built. *)
let index sp (o : Runner.outcome) =
  Spans.with_span sp "trace.index" (fun () -> ignore (Trace.invoked o.trace))

(* Properties.all (or [core], without group-sequentiality), one span
   per check, in the library's order. *)
let properties sp ?(core = false) (o : Runner.outcome) =
  let checks =
    [
      ("integrity", Properties.integrity);
      ("termination", Properties.termination);
      ("minimality", Properties.minimality);
    ]
    @ (if core then [] else [ ("group-sequential", Properties.group_sequential) ])
    @
    match o.Runner.variant with
    | Algorithm1.Vanilla -> [ ("ordering", Properties.ordering) ]
    | Algorithm1.Strict ->
        [
          ("ordering", Properties.ordering);
          ("strict-ordering", Properties.strict_ordering);
        ]
    | Algorithm1.Pairwise -> [ ("pairwise-ordering", Properties.pairwise_ordering) ]
  in
  Spans.with_span sp "checker.properties" (fun () ->
      List.map
        (fun (name, check) ->
          let span = "checker." ^ String.map (function '-' -> '_' | c -> c) name in
          (name, Spans.with_span sp span (fun () -> check o)))
        checks)

let claims sp (o : Runner.outcome) =
  let checks =
    Claims.
      [
        (2, claim2); (3, claim3); (4, claim4); (5, claim5); (6, claim6);
        (7, claim7); (8, claim8); (9, claim9); (10, claim10); (11, claim11);
        (12, claim12); (13, claim13); (14, claim14); (15, claim15);
      ]
  in
  Spans.with_span sp "checker.claims" (fun () ->
      List.map
        (fun (k, check) ->
          ( Printf.sprintf "claim %d" k,
            Spans.with_span sp (Printf.sprintf "checker.claim%d" k) (fun () ->
                check o) ))
        checks)

(* Scenario.run. *)
let scenario_run sp ?(record_snapshots = false) (s : Scenario.t) =
  (match Scenario.validate s with
  | Ok () -> ()
  | Error e -> invalid_arg ("Scenario.run: " ^ e));
  let topo = Scenario.topology s in
  let fp = Scenario.failure_pattern s in
  let workload = Workload.make s.msgs topo in
  let mu =
    Spans.with_span sp "fd.mu_make" (fun () ->
        let mu = Mu.make ~max_delay:s.max_delay ~seed:s.seed topo fp in
        match s.ablation with
        | Scenario.Full -> mu
        | Lying_gamma -> Mu.gamma_lying mu
        | Always_gamma -> Mu.gamma_always mu)
  in
  let scheduled =
    match s.schedule with
    | Scenario.Free -> None
    | Starve { p; from_; len } ->
        Some
          (fun t ->
            if t >= from_ && t < from_ + len then Pset.remove p (Pset.range s.n)
            else Pset.range s.n)
    | Pinned moves ->
        let arr = Array.of_list moves in
        Some
          (fun t ->
            if t < Array.length arr then
              match arr.(t) with Some p -> Pset.singleton p | None -> Pset.empty
            else Pset.range s.n)
  in
  runner sp ~variant:s.variant ~seed:s.seed ?scheduled ~faults:s.faults
    ~record_snapshots ~mu ~topo ~fp ~workload ()

(* Scenario.check, returning the outcome too. *)
let scenario_check sp (s : Scenario.t) =
  let o = Spans.with_span sp "fuzz.scenario_run" (fun () -> scenario_run sp s) in
  index sp o;
  let checks = properties sp o in
  let exempt =
    lazy
      (Scenario.liveness_gap s
      || (s.variant = Algorithm1.Pairwise
         && Topology.cyclic_families (Scenario.topology s) <> [])
      || Channel_fault.lossy s.faults)
  in
  let failures =
    List.filter_map
      (function
        | "termination", Error _ when Lazy.force exempt -> None
        | _, Error e -> Some e
        | _, Ok () -> None)
      checks
  in
  (o, if failures = [] then Ok () else Error (String.concat "; " failures))
