(* Systematic exploration (lib/explore): POR soundness at the engine
   level, children derived from state copies against prefix replay,
   exhaustive verdicts on small configurations, pinned search counters,
   ablation and jobs invariance, and exhaustive re-verification of
   corpus findings at minimal depth. *)

let g = Pset.of_list

(* Two disjoint triangles: p0..p2 and p3..p5 never interact. *)
let disjoint_sc =
  Scenario.make
    ~msgs:[ (0, 0, 0); (3, 1, 0) ]
    ~n:6
    [ g [ 0; 1; 2 ]; g [ 3; 4; 5 ] ]

(* Two chained groups sharing p1: everything interacts. *)
let chain_sc =
  Scenario.make ~msgs:[ (0, 0, 0) ] ~n:3 [ g [ 0; 1 ]; g [ 1; 2 ] ]

(* The minimized always-γ corpus counterexample's configuration
   (corpus/always-gamma-seed1-trial0.fail.scenario): crash p4 of the
   cyclic family {g0,g1,g2}, γ never excludes it, and the correct
   members of g2 wait forever — every schedule deadlocks. *)
let always_gamma_sc =
  Scenario.make ~seed:477670 ~ablation:Scenario.Always_gamma ~max_delay:1
    ~crashes:[ (4, 0) ]
    ~msgs:[ (5, 2, 0) ]
    ~n:6
    [ g [ 0; 2 ]; g [ 2; 4 ]; g [ 0; 4; 5 ] ]

(* ---------------- reference oracles ------------------------------- *)

(* The pinned run the explorer used to rebuild every node from its move
   prefix: a free [Engine.run] whose tick [t] schedules only
   [moves.(t)] ([None]: nobody), stopping after the last move with
   quiescence disabled. Returns the stats and the per-move fired flags.
   It shares nothing with [Engine.pinned_tick], which is what makes it
   an oracle for the explorer's one-tick child derivation. *)
let run_pinned ~fp ?(seed = 1) ?enabled ~(moves : int option array) ~step () =
  let d = Array.length moves in
  let fired = Array.make (max d 1) false in
  let scheduled t =
    if t >= d then Pset.empty
    else match moves.(t) with Some p -> Pset.singleton p | None -> Pset.empty
  in
  let step ~pid ~time =
    let r = step ~pid ~time in
    if r && time < d then fired.(time) <- true;
    r
  in
  let stats =
    Engine.run ~fp ~horizon:(d - 1) ~quiesce_after:d ~seed ~scheduled ?enabled
      ~step ()
  in
  (stats, Array.sub fired 0 d)

(* The configuration objects of a scenario, exactly as the explorer
   builds them (ablated μ included). *)
let config sc =
  let topo = Scenario.topology sc in
  let fp = Scenario.failure_pattern sc in
  let mu =
    Mu.make ~max_delay:sc.Scenario.max_delay ~seed:sc.Scenario.seed topo fp
  in
  let mu =
    match sc.Scenario.ablation with
    | Scenario.Full -> mu
    | Scenario.Lying_gamma -> Mu.gamma_lying mu
    | Scenario.Always_gamma -> Mu.gamma_always mu
  in
  (topo, fp, mu)

let initial sc =
  let topo, _, mu = config sc in
  Algorithm1.create ~variant:sc.Scenario.variant ~faults:sc.Scenario.faults
    ~fault_seed:sc.Scenario.seed ~topo ~mu
    ~workload:(Scenario.workload sc) ()

(* Prefix replay: a fresh instance driven through the whole move
   prefix. *)
let replay sc moves =
  let _, fp, _ = config sc in
  let st = initial sc in
  let stats, fired =
    run_pinned ~fp ~seed:sc.Scenario.seed ~moves:(Array.of_list moves)
      ~enabled:(Algorithm1.enabled st) ~step:(Algorithm1.step st) ()
  in
  (st, stats, fired)

(* The fingerprint rendering as first written, with Printf and the
   trace's delivery index: [Fingerprint.render] must stay byte-equal
   to it (digests, and with them the cache's verdicts, depend on every
   byte). *)
let reference_render ~time ~topo ~msgs st =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "t%d" time;
  List.iter
    (fun ((g, h) as key) ->
      add "|L%d.%d:" g h;
      List.iter
        (fun (d, pos, locked) ->
          (match d with
          | Algorithm1.Msg m -> add "m%d" m
          | Algorithm1.Pend (m, h, i) -> add "p%d.%d.%d" m h i
          | Algorithm1.Stab (m, h) -> add "s%d.%d" m h);
          add "@%d%c;" pos (if locked then '!' else '.'))
        (Algorithm1.log_snapshot st key))
    (Algorithm1.log_keys st);
  List.iter
    (fun g ->
      add "|S%d:%s" g
        (String.concat ","
           (List.map string_of_int (Algorithm1.list_snapshot st g))))
    (Topology.gids topo);
  for m = 0 to msgs - 1 do
    add "|i%d%c" m (if Algorithm1.listed st ~m then 'y' else 'n')
  done;
  List.iter
    (fun ((m, fam), v) ->
      add "|C%d.%s=%d" m (String.concat "." (List.map string_of_int fam)) v)
    (Algorithm1.consensus_decisions st);
  (if not (Channel_fault.is_none (Algorithm1.channel_faults st)) then
     let n = Topology.n topo in
     for p = 0 to n - 1 do
       for m = 0 to msgs - 1 do
         match Algorithm1.visibility st ~pid:p ~m ~time with
         | `Visible -> ()
         | `Pending d -> add "|v%d.%d+%d" p m d
         | `Lost -> add "|v%d.%d x" p m
       done
     done);
  let tr = Algorithm1.trace st in
  for p = 0 to tr.Trace.n - 1 do
    add "|f%d:" p;
    for m = 0 to msgs - 1 do
      add "%d" (Trace.phase_rank (Algorithm1.phase st ~pid:p ~m))
    done;
    add "|D%d:%s" p
      (String.concat "," (List.map string_of_int (Trace.delivery_order tr p)))
  done;
  Buffer.contents b

(* Replay a pinned move prefix, returning the canonical fingerprint
   rendering of the resulting state. *)
let render_after sc moves =
  let st, _, fired = replay sc (List.map Option.some moves) in
  ( Fingerprint.render ~time:(Explore.steady_time sc)
      ~topo:(Scenario.topology sc) ~msgs:(List.length sc.Scenario.msgs) st,
    Array.for_all Fun.id fired )

(* POR soundness at the engine level: stepping two non-interacting
   processes in either order yields fingerprint-identical states, for
   every non-interacting pair of the topology. *)
let commutation () =
  let sc = disjoint_sc in
  let topo = Scenario.topology sc in
  let n = Topology.n topo in
  let checked = ref 0 in
  for p = 0 to n - 1 do
    for q = p + 1 to n - 1 do
      if not (Topology.interacting topo p q) then begin
        let r_pq, _ = render_after sc [ p; q ] in
        let r_qp, _ = render_after sc [ q; p ] in
        Alcotest.(check string)
          (Printf.sprintf "p%d;p%d commutes with p%d;p%d" p q q p)
          r_pq r_qp;
        incr checked
      end
    done
  done;
  (* 3 × 3 cross-triangle pairs *)
  Alcotest.(check int) "all cross-component pairs checked" 9 !checked;
  (* the two workload sources really do act in both orders — the
     commutation above is not vacuous *)
  let _, fired_03 = render_after sc [ 0; 3 ] in
  let _, fired_30 = render_after sc [ 3; 0 ] in
  Alcotest.(check bool) "both sources act in either order" true
    (fired_03 && fired_30)

(* ---------------- copies vs. prefix replay ------------------------ *)

(* The explorer's configurations, as `amcast_cli explore` builds them:
   message i goes to group i mod G from its smallest member at t=0. *)
let canned ?(crashes = []) ?(faults = Channel_fault.none) topo ~msgs =
  let gids = Topology.gids topo in
  let msgs =
    List.init msgs (fun i ->
        let gid = List.nth gids (i mod List.length gids) in
        match Pset.min_elt (Topology.group topo gid) with
        | Some src -> (src, gid, 0)
        | None -> invalid_arg "canned: empty group")
  in
  Scenario.make ~crashes ~faults ~msgs ~max_delay:1 ~n:(Topology.n topo)
    (List.map (Topology.group topo) gids)

(* The two channel-fault specs of the fault tests: stubborn lossy
   links, and lossy duplicating links without retransmission. *)
let stubborn_drop =
  { Channel_fault.drop = 2_500; dup = 0; delay = 2; stubborn = true }

let drop_dup =
  { Channel_fault.drop = 4_000; dup = 2_000; delay = 3; stubborn = false }

let equal_stats (a : Engine.stats) (b : Engine.stats) =
  a.Engine.steps = b.Engine.steps
  && a.Engine.executed = b.Engine.executed
  && a.Engine.ticks_used = b.Engine.ticks_used
  && a.Engine.quiescent = b.Engine.quiescent

(* Walk [depth] ticks of a pinned schedule the way the explorer builds
   nodes: at every tick derive the child of every move ([Idle] and each
   process) from a copy of the current state through
   [Engine.pinned_tick], and check each child against a fresh replay of
   its whole prefix — new [Fingerprint.render] byte-equal to the Printf
   reference, same events, same stats, same fired flag. The parent must
   render the same before and after its children are derived. [choose]
   picks the move the walk continues with. *)
let walk name sc ~depth ~choose =
  let topo, fp, _ = config sc in
  let msgs = List.length sc.Scenario.msgs in
  let moves = None :: List.init sc.Scenario.n Option.some in
  let events st = (Algorithm1.trace st).Trace.events in
  let rec go st stats prefix t =
    if t < depth then begin
      let before = Fingerprint.render ~time:t ~topo ~msgs st in
      let children =
        List.map
          (fun mv ->
            let st' = Algorithm1.copy st in
            let stats', fired =
              Engine.pinned_tick ~fp ~enabled:(Algorithm1.enabled st')
                ~step:(Algorithm1.step st') stats ~time:t mv
            in
            let path = List.rev (mv :: prefix) in
            let rst, rstats, rfired = replay sc path in
            let label =
              Printf.sprintf "%s: %s" name
                (Explore.moves_to_string
                   (List.map
                      (function Some p -> Explore.Step p | None -> Explore.Idle)
                      path))
            in
            let expected = reference_render ~time:(t + 1) ~topo ~msgs rst
            and got = Fingerprint.render ~time:(t + 1) ~topo ~msgs st' in
            if not (String.equal expected got) then
              Alcotest.failf "%s: render\n  expected %s\n  got      %s" label
                expected got;
            if events st' <> events rst then Alcotest.failf "%s: events" label;
            if not (equal_stats stats' rstats) then
              Alcotest.failf "%s: stats" label;
            if fired <> rfired.(t) then Alcotest.failf "%s: fired" label;
            (mv, st', stats', fired))
          moves
      in
      if not (String.equal before (Fingerprint.render ~time:t ~topo ~msgs st))
      then Alcotest.failf "%s: deriving children changed the parent" name;
      let mv, st', stats', _ = choose t children in
      go st' stats' (mv :: prefix) (t + 1)
    end
  in
  let zero =
    {
      Engine.steps = Array.make sc.Scenario.n 0;
      executed = 0;
      ticks_used = 0;
      quiescent = false;
    }
  in
  go (initial sc) zero [] 0

(* Continue with a move that fired, picked by a seeded stream (idle
   when none did). *)
let random_fired seed =
  let rng = Rng.make seed in
  fun _ children ->
    match List.filter (fun (_, _, _, fired) -> fired) children with
    | [] -> List.hd children
    | l -> List.nth l (Rng.int rng (List.length l))

(* Continue with the [t]-th move of a recorded schedule. *)
let follow schedule t children =
  let mv = List.nth schedule t in
  List.find (fun (mv', _, _, _) -> mv' = mv) children

let copies_match_replay () =
  let chain2 = Topology.chain ~groups:2 in
  List.iter
    (fun (name, sc, depth) ->
      List.iter
        (fun seed -> walk name sc ~depth ~choose:(random_fired seed))
        [ 1; 2; 3 ])
    [
      ("chain:2 K2", canned chain2 ~msgs:2, 24);
      ("chain:2 K2 crash 1@1", canned ~crashes:[ (1, 1) ] chain2 ~msgs:2, 20);
      ("stubborn drop", canned ~faults:stubborn_drop chain2 ~msgs:2, 24);
      ("drop+dup", canned ~faults:drop_dup chain2 ~msgs:2, 24);
    ];
  (* The pinned pairwise C4 deadlock from the corpus, move for move. *)
  match
    List.assoc_opt "pairwise-c4-deadlock.scenario"
      (Corpus.load ~dir:"../corpus")
  with
  | Some (Ok ({ Scenario.schedule = Scenario.Pinned moves; _ } as sc)) ->
      walk "pairwise-c4-deadlock" sc ~depth:(List.length moves)
        ~choose:(follow moves)
  | _ -> Alcotest.fail "pairwise-c4-deadlock.scenario not loaded"

(* Exhaustive sweeps of small acyclic configurations are clean: no
   violation on any interleaving, and the default depth covers
   quiescence (no truncated leaves). *)
let exhaustive_clean sc name () =
  let r = Explore.run ~jobs:2 sc in
  Alcotest.(check (list string)) (name ^ " has no violation") []
    (Explore.failing_properties r);
  Alcotest.(check bool) (name ^ " reaches terminals") true
    (r.Explore.counters.Explore.terminals >= 1);
  Alcotest.(check int) (name ^ " quiesces within the default depth") 0
    r.Explore.counters.Explore.truncated

(* [~claims:true] checks Table 2 at every terminal on the per-tick
   snapshots its path carries: clean on chain:1 with two messages (the
   `explore -t chain:1 --msgs 2 --claims` configuration), and the
   search itself is the same with claims on and off. *)
let claims_at_terminals () =
  let sc =
    Scenario.make ~msgs:[ (0, 0, 0); (0, 0, 0) ] ~n:3 [ g [ 0; 1; 2 ] ]
  in
  let plain = Explore.run ~claims:false sc in
  let checked = Explore.run ~claims:true sc in
  Alcotest.(check (list string)) "no violation" []
    (Explore.failing_properties checked);
  Alcotest.(check bool) "reaches a terminal" true
    (checked.Explore.counters.Explore.terminals >= 1);
  Alcotest.(check bool) "same search with claims on" true
    (checked.Explore.counters = plain.Explore.counters)

(* The search is pinned node for node: these counters were measured
   with prefix replay, and deriving children from state copies must
   reproduce them exactly. *)
let pinned_counters () =
  let counters (r : Explore.report) =
    let c = r.Explore.counters in
    Explore.
      [
        ("nodes", c.nodes);
        ("terminals", c.terminals);
        ("truncated", c.truncated);
        ("cache_hits", c.cache_hits);
        ("sleep_skips", c.sleep_skips);
        ("distinct_states", c.distinct_states);
      ]
  in
  let check name expected r =
    List.iter
      (fun (field, v) ->
        Alcotest.(check int) (name ^ " " ^ field) v
          (List.assoc field (counters r)))
      expected
  in
  check "chain:2 K2 depth 10"
    [
      ("nodes", 4787);
      ("truncated", 834);
      ("cache_hits", 2650);
      ("sleep_skips", 1117);
      ("distinct_states", 1446);
    ]
    (Explore.run ~depth:10 (canned (Topology.chain ~groups:2) ~msgs:2));
  let ring =
    Explore.run ~claims:true ~jobs:2 (canned (Topology.ring ~groups:3) ~msgs:1)
  in
  check "ring:3 K1 claims"
    [
      ("nodes", 605);
      ("terminals", 4);
      ("cache_hits", 328);
      ("distinct_states", 276);
    ]
    ring;
  Alcotest.(check (list string)) "ring:3 K1 claims verdict" []
    (Explore.failing_properties ring)

(* Blind rediscovery of a deadlock from exploration alone: iterative
   deepening on the always-γ configuration finds a minimal-length
   termination witness in milliseconds, and the witness replays into
   the same violation through the ordinary scenario runner. *)
let rediscover_deadlock () =
  match Explore.min_witness ~jobs:2 ~max_depth:12 always_gamma_sc with
  | None -> Alcotest.fail "deadlock not rediscovered"
  | Some r ->
      Alcotest.(check (list string))
        "termination is the failing property" [ "termination" ]
        (Explore.failing_properties r);
      let v = List.hd r.Explore.violations in
      Alcotest.(check bool) "witness is short" true
        (List.length v.Explore.witness <= r.Explore.depth);
      let w = Explore.witness_scenario always_gamma_sc v.Explore.witness in
      (match w.Scenario.schedule with
      | Scenario.Pinned _ -> ()
      | _ -> Alcotest.fail "witness scenario is not pinned");
      let o = Scenario.run w in
      (match Properties.termination o with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "witness replay delivers everything");
      (* deepening is minimal: one depth shallower finds nothing *)
      (match
         Explore.run ~stop_on_first:true ~depth:(r.Explore.depth - 1)
           always_gamma_sc
       with
      | { Explore.violations = []; _ } -> ()
      | _ -> Alcotest.fail "a shallower witness exists")

(* The reductions are sound: verdicts are identical with POR and the
   fingerprint cache ablated, on a clean and on a violating config. *)
let ablation_identity () =
  List.iter
    (fun (name, sc, depth) ->
      let f ~por ~cache =
        Explore.failing_properties (Explore.run ~por ~cache ?depth ~jobs:2 sc)
      in
      let full = f ~por:true ~cache:true in
      Alcotest.(check (list string)) (name ^ ": -por") full (f ~por:false ~cache:true);
      Alcotest.(check (list string)) (name ^ ": -cache") full (f ~por:true ~cache:false))
    [
      ("chain", chain_sc, None);
      ("always-gamma", always_gamma_sc, Some 8);
    ]

(* POR actually reduces on multi-component topologies. *)
let por_reduces () =
  let nodes ~por =
    (Explore.run ~por ~jobs:2 disjoint_sc).Explore.counters.Explore.nodes
  in
  let with_por = nodes ~por:true and without = nodes ~por:false in
  Alcotest.(check bool)
    (Printf.sprintf "POR shrinks the tree (%d < %d)" with_por without)
    true
    (with_por * 10 < without)

(* Reports are bit-identical across the worker-domain count. *)
let jobs_identity () =
  List.iter
    (fun (name, sc, depth) ->
      let r1 = Explore.run ?depth ~jobs:1 sc in
      let r2 = Explore.run ?depth ~jobs:2 sc in
      (* everything but the echoed jobs field must be bit-identical *)
      Alcotest.(check bool) (name ^ ": identical reports") true
        ({ r1 with Explore.jobs = 0 } = { r2 with Explore.jobs = 0 }))
    [
      ("disjoint", disjoint_sc, None);
      ("always-gamma", always_gamma_sc, Some 9);
    ]

(* Pinned witness schedules round-trip through the scenario codec,
   idle ticks included. *)
let pinned_codec () =
  let sc =
    {
      always_gamma_sc with
      Scenario.schedule = Scenario.Pinned [ Some 5; None; Some 0; None; Some 5 ];
    }
  in
  let text = Scenario.to_string sc in
  Alcotest.(check bool) "renders idle as -" true
    (let found = ref false in
     String.split_on_char '\n' text
     |> List.iter (fun l -> if l = "schedule pinned 5 - 0 - 5" then found := true);
     !found);
  match Scenario.of_string text with
  | Error e -> Alcotest.failf "does not re-parse: %s" e
  | Ok sc' -> Alcotest.(check bool) "round-trips" true (Scenario.equal sc sc')

(* Every .fail. corpus finding is re-verified exhaustively: systematic
   exploration of its configuration (schedule ignored) rediscovers a
   violation, bounded by the recorded witness length when the corpus
   entry is a pinned explorer witness. *)
let corpus_reverify () =
  let entries = Corpus.load ~dir:"../corpus" in
  let decoded =
    List.filter_map
      (fun (name, d) ->
        match d with Ok s -> Some (name, s) | Error _ -> None)
      entries
  in
  (* Pinned schedules in the corpus are recorded explorer witnesses:
     each must still replay to a raw-specification violation through
     the ordinary runner. Note Properties.check_all, not
     Scenario.check — the latter exempts documented liveness
     exceptions (the pairwise/cyclic deadlock among them), which is
     exactly what a witness is a witness *of*. *)
  let pinned =
    List.filter
      (fun (_, s) ->
        match s.Scenario.schedule with
        | Scenario.Pinned _ -> true
        | _ -> false)
      decoded
  in
  if pinned = [] then Alcotest.fail "no pinned explorer witness in the corpus";
  List.iter
    (fun (name, s) ->
      if Properties.check_all (Scenario.run s) = Ok () then
        Alcotest.failf "%s: pinned witness no longer violates" name)
    pinned;
  (* Expected-failing entries are exhaustively re-verified: systematic
     exploration of the configuration (schedule ignored) must
     rediscover a violation. Reserved for shallow findings — deep
     pinned witnesses (the pairwise C4 deadlock, 31 moves) and the
     lying-γ config cost minutes, and `amcast_cli explore --replay`
     covers them out of band. *)
  let failing =
    List.filter (fun (name, _) -> Corpus.expected_failing name) decoded
  in
  if List.length failing < 2 then
    Alcotest.failf "too few failing corpus entries (%d)" (List.length failing);
  List.iter
    (fun (name, s) ->
      (* a length-d termination witness is only confirmable with one
         move of lookahead, hence the +1 on pinned bounds *)
      let bound =
        match s.Scenario.schedule with
        | Scenario.Pinned moves when List.length moves <= 12 ->
            Some (List.length moves + 1)
        | _ when s.Scenario.ablation = Scenario.Always_gamma -> Some 10
        | _ -> None
      in
      match bound with
      | None -> ()
      | Some max_depth -> (
          match Explore.min_witness ~jobs:2 ~max_depth s with
          | None -> Alcotest.failf "%s: violation not rediscovered" name
          | Some r ->
              Alcotest.(check bool)
                (name ^ ": rediscovered at or below the recorded depth")
                true
                (r.Explore.depth <= max_depth)))
    failing

let suite =
  let t = Alcotest.test_case in
  [
    t "engine-level commutation" `Quick commutation;
    t "exhaustive chain is clean" `Quick (exhaustive_clean chain_sc "chain");
    t "exhaustive disjoint is clean" `Quick (exhaustive_clean disjoint_sc "disjoint");
    t "claims checked at terminals" `Quick claims_at_terminals;
    t "copies match prefix replay" `Quick copies_match_replay;
    t "search counters pinned" `Quick pinned_counters;
    t "deadlock rediscovered blind" `Quick rediscover_deadlock;
    t "por/cache ablation identity" `Quick ablation_identity;
    t "por reduces multi-component trees" `Quick por_reduces;
    t "jobs invariance" `Quick jobs_identity;
    t "pinned codec round-trip" `Quick pinned_codec;
    t "corpus findings re-verified exhaustively" `Quick corpus_reverify;
  ]
