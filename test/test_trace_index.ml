(* The Trace index is pure memoization: every indexed query must return
   exactly what the original cons-list scan returned, for well-formed
   traces (monotone seqs, as the engine emits) AND for adversarial ones
   (duplicate events, repeated seqs, arbitrary interleavings), probed
   both inside and outside the id ranges the trace mentions. *)

let t = Alcotest.test_case

(* The pre-index query bodies, verbatim. *)

let naive_deliveries events =
  List.filter_map
    (function
      | Trace.Deliver { m; p; time; seq } -> Some (p, m, time, seq) | _ -> None)
    events

let naive_delivery_order events p =
  List.filter_map
    (function Trace.Deliver d when d.p = p -> Some d.m | _ -> None)
    events

let naive_delivered_at events ~p ~m =
  List.exists
    (function Trace.Deliver d -> d.p = p && d.m = m | _ -> false)
    events

let naive_delivery_seq events ~p ~m =
  List.find_map
    (function
      | Trace.Deliver d when d.p = p && d.m = m -> Some d.seq | _ -> None)
    events

let naive_first_delivery_seq events ~m =
  List.find_map
    (function Trace.Deliver d when d.m = m -> Some d.seq | _ -> None)
    events

let naive_invoke_seq events ~m =
  List.find_map
    (function Trace.Invoke i when i.m = m -> Some i.seq | _ -> None)
    events

let naive_send_seq events ~m =
  List.find_map
    (function Trace.Send s when s.m = m -> Some s.seq | _ -> None)
    events

let naive_invoked events =
  List.filter_map (function Trace.Invoke i -> Some i.m | _ -> None) events

let naive_phase_history events ~p ~m =
  List.filter_map
    (function
      | Trace.Phase_change c when c.p = p && c.m = m -> Some c.phase
      | Trace.Deliver d when d.p = p && d.m = m -> Some Trace.Delivered
      | _ -> None)
    events

(* Probe every query over a grid that overshoots the mentioned ids on
   both sides (negative and past-the-end probes must agree too). *)
let agrees ~n events =
  let tr = Trace.make ~n events in
  let pmax = n + 2 and mmax = 8 in
  Trace.deliveries tr = naive_deliveries events
  && Trace.invoked tr = naive_invoked events
  && List.for_all
       (fun p -> Trace.delivery_order tr p = naive_delivery_order events p)
       (List.init (pmax + 2) (fun i -> i - 1))
  && List.for_all
       (fun m ->
         Trace.first_delivery_seq tr ~m = naive_first_delivery_seq events ~m
         && Trace.invoke_seq tr ~m = naive_invoke_seq events ~m
         && Trace.send_seq tr ~m = naive_send_seq events ~m)
       (List.init (mmax + 2) (fun i -> i - 1))
  && List.for_all
       (fun p ->
         List.for_all
           (fun m ->
             Trace.delivered_at tr ~p ~m = naive_delivered_at events ~p ~m
             && Trace.delivery_seq tr ~p ~m = naive_delivery_seq events ~p ~m
             && Trace.phase_history tr ~p ~m = naive_phase_history events ~p ~m)
           (List.init (mmax + 2) (fun i -> i - 1)))
       (List.init (pmax + 2) (fun i -> i - 1))

let phases = [| Trace.Start; Pending; Commit; Stable; Delivered |]

let event_gen ~n ~mb ~seq =
  QCheck.Gen.(
    int_range 0 3 >>= fun kind ->
    int_range 0 (n - 1) >>= fun p ->
    int_range 0 (mb - 1) >>= fun m ->
    int_range 0 20 >>= fun time ->
    match kind with
    | 0 -> return (Trace.Invoke { m; p; time; seq })
    | 1 -> return (Trace.Send { m; p; time; seq })
    | 2 ->
        int_range 0 (Array.length phases - 1) >>= fun ph ->
        return (Trace.Phase_change { m; p; phase = phases.(ph); time; seq })
    | _ -> return (Trace.Deliver { m; p; time; seq }))

(* Well-formed: one event per seq, seqs 0, 1, 2, ... in list order —
   the shape the engine emits. *)
let well_formed_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    int_range 1 6 >>= fun mb ->
    int_range 0 40 >>= fun len ->
    let rec build seq acc =
      if seq >= len then return (n, List.rev acc)
      else event_gen ~n ~mb ~seq >>= fun ev -> build (seq + 1) (ev :: acc)
    in
    build 0 [])

(* Adversarial: seqs drawn independently (duplicates, non-monotone),
   repeated events, and processes past the declared universe. *)
let adversarial_gen =
  QCheck.Gen.(
    int_range 1 4 >>= fun n ->
    int_range 1 6 >>= fun mb ->
    int_range 0 40 >>= fun len ->
    let rand_event _ =
      int_range 0 12 >>= fun seq -> event_gen ~n:(n + 2) ~mb ~seq
    in
    flatten_l (List.init len rand_event) >>= fun evs ->
    (* duplicate a prefix to force repeated (p, m) deliveries *)
    int_range 0 (List.length evs) >>= fun k ->
    return (n, List.filteri (fun i _ -> i < k) evs @ evs))

let arbitrary_of gen =
  QCheck.make
    ~print:(fun (n, evs) ->
      Format.asprintf "n=%d@ %a" n
        (Format.pp_print_list Trace.pp_event)
        evs)
    gen

let indexed_matches_naive name gen =
  QCheck.Test.make ~name ~count:300 (arbitrary_of gen) (fun (n, events) ->
      agrees ~n events)

let index_is_idempotent () =
  (* Querying twice (index built once, then reused) and rebuilding via
     a fresh trace give the same answers. *)
  let events =
    [
      Trace.Invoke { m = 0; p = 0; time = 0; seq = 0 };
      Trace.Deliver { m = 0; p = 0; time = 1; seq = 1 };
      Trace.Deliver { m = 0; p = 0; time = 2; seq = 2 };
    ]
  in
  let tr = Trace.make ~n:1 events in
  let first = Trace.delivery_seq tr ~p:0 ~m:0 in
  let second = Trace.delivery_seq tr ~p:0 ~m:0 in
  Alcotest.(check (option int)) "memoized query stable" first second;
  Alcotest.(check (option int)) "duplicate delivery keeps first seq" (Some 1) first;
  Alcotest.(check int) "deliveries keeps duplicates" 2
    (List.length (Trace.deliveries tr))

(* The ordering checkers decide acyclicity on a linear-size graph and
   only fall back to the pair lists for a witness; their Ok/Error must
   be exactly "the pair relation has no cycle". The generated traces
   run over a topology with overlapping groups (everyone, plus the
   consecutive pairs), with one workload message per mentioned id but
   the last, so ids outside the workload occur too. *)
let outcome_of ~n events =
  let groups =
    Pset.range n
    :: (if n < 3 then [] else List.init (n - 1) (fun i -> Pset.of_list [ i; i + 1 ]))
  in
  let topo = Topology.create ~n groups in
  let k = List.length groups in
  let mb =
    List.fold_left
      (fun mb ev ->
        match ev with
        | Trace.Invoke { m; _ } | Send { m; _ } | Phase_change { m; _ } | Deliver { m; _ } ->
            max mb (m + 1))
      0 events
  in
  let specs =
    List.init (max 1 (mb - 1)) (fun m ->
        let g = m mod k in
        (Pset.choose (Topology.group topo g), g, 0))
  in
  {
    Runner.topo;
    workload = Workload.make specs topo;
    fp = Failure_pattern.never ~n;
    variant = Algorithm1.Strict;
    trace = Trace.make ~n events;
    stats = { Engine.steps = Array.make n 0; executed = 0; ticks_used = 0; quiescent = true };
    snapshots = [];
    final_logs = [];
    consensus_instances = 0;
    consensus_rounds = 0;
    links = Channel_fault.stats_zero;
  }

(* ↝ straight from its definition: m is first delivered before m' is
   invoked. *)
let naive_realtime_edges (o : Runner.outcome) =
  let ids = List.map (fun m -> m.Amsg.id) (Workload.messages o.workload) in
  List.concat_map
    (fun m ->
      List.filter_map
        (fun m' ->
          match
            (naive_first_delivery_seq o.trace.events ~m,
             naive_invoke_seq o.trace.events ~m:m')
          with
          | Some d, Some i when m <> m' && d < i -> Some (m, m')
          | _ -> None)
        ids)
    ids

let ordering_matches_cycles name gen =
  QCheck.Test.make ~name ~count:300 (arbitrary_of gen) (fun (n, events) ->
      let o = outcome_of ~n events in
      let edges = Properties.delivery_edges o in
      (Properties.ordering o = Ok ()) = (Properties.find_cycle edges = None)
      && (Properties.strict_ordering o = Ok ())
         = (Properties.find_cycle (edges @ naive_realtime_edges o) = None))

let suite =
  [ t "index memoization" `Quick index_is_idempotent ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        indexed_matches_naive "trace index: well-formed traces" well_formed_gen;
        indexed_matches_naive "trace index: adversarial traces" adversarial_gen;
        ordering_matches_cycles "ordering = acyclic ↦: well-formed traces"
          well_formed_gen;
        ordering_matches_cycles "ordering = acyclic ↦: adversarial traces"
          adversarial_gen;
      ]
