(* The five workloads. Each one is built once by [setup] (the fixed
   state: topology, generator configuration, pool) and then run as
   iterations, each going from inputs generated from the seed to
   checked verdicts. [iterate] calls the library's entry points as a
   user would; [traced] re-composes the same iteration from public
   calls with a span around each (see [Compose]). *)

type size = Full | Smoke

(* Deterministic per-iteration facts: every run of an input must
   reproduce its first run's exactly. *)
type counts = {
  delivered : int;  (** messages delivered at every correct destination *)
  states : int;  (** Algorithm 1 steps executed, or explorer nodes *)
  latency : int list;  (** simulated latency p50, p99, max, samples *)
  rounds : int;  (** consensus rounds *)
}

(* What the traced composition must reproduce of the untraced call. *)
type ident =
  | Runs of (Trace.event list * Engine.stats) list
  | Fuzz_report of int * (int * string) list
  | Explore_counters of Explore.counters

type result = {
  ops : int;  (** checked verdicts: scenarios, trials or explorations *)
  failures : string list;  (** one per failed verdict *)
  counts : counts;
  ident : ident;
}

type instance = {
  jobs : int;
  inputs : int;
      (** distinct inputs; iteration [i] runs input [i mod inputs] *)
  iterate : int -> result;
  traced : Spans.t -> int -> result;
  probe : Spans.t -> unit;
      (** per-layer measurements taken outside the iteration span *)
  work : result -> counts;
      (** counts for the throughput metrics, where [iterate] cannot
          see them *)
  close : unit -> unit;
}

type t = { name : string; why : string; setup : seed:int -> size -> instance }

let no_probe _ = ()
let nothing () = ()

let failures_of checks =
  let bad =
    List.filter_map
      (function name, Error e -> Some (name ^ ": " ^ e) | _, Ok () -> None)
      checks
  in
  if bad = [] then [] else [ String.concat "; " bad ]

let latency_of samples =
  let p q = Option.value ~default:0 (Latency.percentile samples q) in
  [ p 50; p 99; p 100; List.length samples ]

let counts_of outcomes samples =
  {
    delivered = List.length samples;
    states =
      List.fold_left (fun a (o : Runner.outcome) -> a + o.stats.Engine.executed) 0
        outcomes;
    latency = latency_of samples;
    rounds =
      List.fold_left (fun a (o : Runner.outcome) -> a + o.consensus_rounds) 0
        outcomes;
  }

let runs outcomes =
  Runs
    (List.map
       (fun (o : Runner.outcome) -> (o.trace.Trace.events, o.stats))
       outcomes)

let latency_samples sp outcomes =
  Spans.with_span sp "loadgen.latency" (fun () ->
      List.concat_map Latency.samples outcomes)

(* ring-contended *)

let ring =
  let setup ~seed size =
    let topo = Topology.ring ~groups:24 in
    ignore (Topology.cyclic_families topo);
    let fp = Failure_pattern.never ~n:(Topology.n topo) in
    let duration = match size with Full -> 128 | Smoke -> 4 in
    let gen () =
      Loadgen.open_loop ~rng:(Rng.make seed) ~rate_pct:800 ~skew_pct:0
        ~duration topo
    in
    let finish o checks (lat : Latency.summary) =
      let lat_list =
        List.map (Option.value ~default:0) [ lat.p50; lat.p99; lat.max ]
        @ [ lat.delivered ]
      in
      {
        ops = 1;
        failures = failures_of checks;
        counts = { (counts_of [ o ] []) with delivered = lat.delivered; latency = lat_list };
        ident = runs [ o ];
      }
    in
    let iterate _ =
      let workload = gen () in
      let o = Runner.run ~seed ~topo ~fp ~workload () in
      let checks = Properties.all o in
      finish o checks (Latency.summarize o)
    in
    let traced sp _ =
      let workload = Spans.with_span sp "loadgen.open_loop" gen in
      let o = Compose.runner sp ~seed ~topo ~fp ~workload () in
      Compose.index sp o;
      let checks = Compose.properties sp o in
      let lat =
        Spans.with_span sp "loadgen.latency" (fun () -> Latency.summarize o)
      in
      Spans.with_span sp "bench.verdict" (fun () -> finish o checks lat)
    in
    {
      jobs = 1;
      inputs = 1;
      iterate;
      traced;
      probe = no_probe;
      work = (fun r -> r.counts);
      close = nothing;
    }
  in
  {
    name = "ring-contended";
    why =
      "one 48-process ring, every message in one cyclic family on one \
       domain: stepper, engine, trace index and ordering checker; the \
       bypass case for pool and sharding";
    setup;
  }

(* disjoint-sharded *)

let disjoint =
  let jobs = 2 in
  let setup ~seed size =
    let topo = Topology.disjoint ~groups:16 ~size:3 in
    ignore (Topology.process_components topo);
    let fp = Failure_pattern.never ~n:(Topology.n topo) in
    let duration = match size with Full -> 240 | Smoke -> 8 in
    let pool = Domain_pool.create ~jobs in
    let gen () =
      Loadgen.open_loop ~rng:(Rng.make seed) ~rate_pct:800 ~skew_pct:100
        ~duration topo
    in
    let finish outcomes checks samples =
      {
        ops = 1;
        failures = failures_of (List.concat checks);
        counts = counts_of outcomes samples;
        ident = runs outcomes;
      }
    in
    let iterate _ =
      let workload = gen () in
      let shards = Shard.plan ~topo ~fp workload in
      let outcomes =
        Array.to_list
          (Shard.run ~pool ~seed ~batching:true ~pipelining:true shards)
      in
      let checks = List.map Properties.core outcomes in
      finish outcomes checks (List.concat_map Latency.samples outcomes)
    in
    (* Shard.run re-composed: one Runner.run per shard on [pool]. *)
    let shard_run sp pool shards =
      let n = List.length shards in
      let results =
        Spans.with_span sp "pool.run" (fun () ->
            let parent = Spans.current sp in
            Domain_pool.run pool n (fun i ->
                let s = List.nth shards i in
                let r = Spans.create ~parent () in
                let o =
                  Spans.with_span r "pool.task" (fun () ->
                      Compose.runner r ~seed ~batching:true ~pipelining:true
                        ~topo:s.Shard.topo ~fp:s.fp ~workload:s.workload ())
                in
                (o, r)))
      in
      Spans.with_span sp "bench.trace_merge" (fun () ->
          Array.iter (fun (_, r) -> Spans.merge ~into:sp r) results);
      Array.to_list (Array.map fst results)
    in
    let traced sp _ =
      let workload = Spans.with_span sp "loadgen.open_loop" gen in
      let shards =
        Spans.with_span sp "shard.plan" (fun () -> Shard.plan ~topo ~fp workload)
      in
      Spans.count sp "shard.count" (List.length shards);
      let outcomes = shard_run sp pool shards in
      List.iter (Compose.index sp) outcomes;
      let checks = List.map (Compose.properties sp ~core:true) outcomes in
      let samples = latency_samples sp outcomes in
      Spans.with_span sp "bench.verdict" (fun () -> finish outcomes checks samples)
    in
    (* The same shards on one job: the straggler share and the jobs-2
       speed-up need a sequential reference. *)
    let probe sp =
      let shards = Shard.plan ~topo ~fp (gen ()) in
      Domain_pool.with_pool ~jobs:1 (fun p1 ->
          Spans.with_span sp "probe.shard_jobs1" (fun () ->
              ignore (shard_run sp p1 shards)))
    in
    {
      jobs;
      inputs = 1;
      iterate;
      traced;
      probe;
      work = (fun r -> r.counts);
      close = (fun () -> Domain_pool.shutdown pool);
    }
  in
  {
    name = "disjoint-sharded";
    why =
      "16 independent 3-process groups, skewed, batched and pipelined, \
       run as shards on a 2-job pool: pool scheduling, shared minor GC \
       and the hot-shard straggler";
    setup;
  }

(* fuzz-small and claims-table2 share the generator stream. *)

let fuzz_config = { Scenario_gen.default with faults_gen = `Random }

let fuzz =
  let jobs = 2 in
  let setup ~seed size =
    let cfg = fuzz_config in
    let trials = match size with Full -> 5000 | Smoke -> 40 in
    let report_result (report : Fuzz_driver.report) =
      {
        ops = report.trials;
        failures =
          List.map
            (fun (v : Fuzz_driver.violation) ->
              Printf.sprintf "trial %d: %s" v.trial v.failure)
            report.violations;
        counts = { delivered = 0; states = 0; latency = []; rounds = 0 };
        ident =
          Fuzz_report
            ( report.trials,
              List.map
                (fun (v : Fuzz_driver.violation) -> (v.trial, v.failure))
                report.violations );
      }
    in
    let iterate _ =
      report_result
        (Fuzz_driver.fuzz ~jobs ~minimize:false ~stop_at_first:false ~trials
           ~seed cfg)
    in
    (* Fuzz_driver.fuzz re-composed: Scenario.check per trial on a
       fresh [jobs]-domain pool. *)
    let traced sp _ =
      let results =
        Spans.with_span sp "pool.run" (fun () ->
            let parent = Spans.current sp in
            Domain_pool.map ~jobs trials (fun i ->
                let r = Spans.create ~parent () in
                let verdict =
                  Spans.with_span r "pool.task" (fun () ->
                      let s =
                        Spans.with_span r "fuzz.scenario_gen" (fun () ->
                            Fuzz_driver.scenario_of_trial ~seed cfg i)
                      in
                      snd (Compose.scenario_check r s))
                in
                (verdict, r)))
      in
      Spans.with_span sp "bench.trace_merge" (fun () ->
          Array.iter (fun (_, r) -> Spans.merge ~into:sp r) results);
      Spans.with_span sp "bench.verdict" @@ fun () ->
      let violations =
        List.filter_map
          (fun (i, (v, _)) ->
            match v with
            | Ok () -> None
            | Error failure ->
                Some
                  {
                    Fuzz_driver.trial = i;
                    scenario = Fuzz_driver.scenario_of_trial ~seed cfg i;
                    failure;
                    minimized = None;
                  })
          (List.mapi (fun i v -> (i, v)) (Array.to_list results))
      in
      report_result { Fuzz_driver.trials; violations }
    in
    (* Fuzz reports carry no per-trial outcome: delivered messages and
       executed steps come from re-running the same trials, untimed. *)
    let work_memo = ref None in
    let work _ =
      match !work_memo with
      | Some c -> c
      | None ->
          let per_trial =
            Domain_pool.map ~jobs trials (fun i ->
                let o = Scenario.run (Fuzz_driver.scenario_of_trial ~seed cfg i) in
                (o.stats.Engine.executed, o.consensus_rounds, Latency.samples o))
          in
          let c =
            Array.fold_left
              (fun c (st, rd, s) ->
                {
                  delivered = c.delivered + List.length s;
                  states = c.states + st;
                  latency = List.rev_append s c.latency;
                  rounds = c.rounds + rd;
                })
              { delivered = 0; states = 0; latency = []; rounds = 0 }
              per_trial
          in
          let c = { c with latency = latency_of c.latency } in
          work_memo := Some c;
          c
    in
    { jobs; inputs = 1; iterate; traced; probe = no_probe; work; close = nothing }
  in
  {
    name = "fuzz-small";
    why =
      "thousands of tiny scenarios with crashes and lossy, duplicating or \
       delaying channels on a 2-job pool: per-scenario set-up and pool \
       overhead outweigh the stepper";
    setup;
  }

(* One trial costs from well under a millisecond to 80 ms (the ten
   dearest of 300 take a third of the time), so the first 300 trials
   alone move by a fifth from seed to seed. The workload cycles
   through 36 batches of 100 trials of the seed's stream, one per
   iteration: the median over them is what a seed changes little. *)
let claims =
  let setup ~seed size =
    let cfg = fuzz_config in
    let trials, batches = match size with Full -> (100, 36) | Smoke -> (4, 2) in
    let finish per_trial =
      let outcomes = List.map (fun (o, _, _) -> o) per_trial in
      {
        ops = trials;
        failures = List.concat_map (fun (_, c, _) -> failures_of c) per_trial;
        counts = counts_of outcomes (List.concat_map (fun (_, _, s) -> s) per_trial);
        ident = runs outcomes;
      }
    in
    (* Trials are checked one by one and keep no snapshots, so only one
       trial's snapshots are live at a time. *)
    let slim (o : Runner.outcome) = { o with snapshots = [] } in
    (* The generated scenarios are this workload's inputs; their
       generation is measured on fuzz-small. *)
    let batch =
      Array.init batches (fun b ->
          List.init trials (fun i ->
              Fuzz_driver.scenario_of_trial ~seed cfg ((b * trials) + i)))
    in
    let iterate i =
      finish
        (List.map
           (fun s ->
             let o = Scenario.run ~record_snapshots:true s in
             let checks = Claims.all o in
             (slim o, checks, Latency.samples o))
           batch.(i))
    in
    let traced sp i =
      let per_trial =
        List.map
          (fun s ->
            let o =
              Spans.with_span sp "fuzz.scenario_run" (fun () ->
                  Compose.scenario_run sp ~record_snapshots:true s)
            in
            Compose.index sp o;
            let checks = Compose.claims sp o in
            let samples =
              Spans.with_span sp "loadgen.latency" (fun () -> Latency.samples o)
            in
            (slim o, checks, samples))
          batch.(i)
      in
      Spans.with_span sp "bench.verdict" (fun () -> finish per_trial)
    in
    {
      jobs = 1;
      inputs = batches;
      iterate;
      traced;
      probe = no_probe;
      work = (fun r -> r.counts);
      close = nothing;
    }
  in
  {
    name = "claims-table2";
    why =
      "100 fuzz scenarios per iteration, from 36 batches generated at \
       set-up, run with per-tick log snapshots and checked against Table 2 \
       (claims 2-15) on one domain: the claims checker and snapshots";
    setup;
  }

(* explore-chain: the `explore -t chain:2 --msgs 2` configuration. *)

let explore_scenario ~seed =
  let topo = Topology.chain ~groups:2 in
  let gids = Topology.gids topo in
  let msgs =
    List.init 2 (fun i ->
        let g = List.nth gids (i mod List.length gids) in
        match Pset.min_elt (Topology.group topo g) with
        | Some src -> (src, g, 0)
        | None -> invalid_arg "explore_scenario: empty group")
  in
  Scenario.make ~msgs ~max_delay:1 ~seed ~n:(Topology.n topo)
    (List.map (Topology.group topo) gids)

let explore =
  let setup ~seed size =
    let sc = explore_scenario ~seed in
    let depth = match size with Full -> 14 | Smoke -> 6 in
    let finish (r : Explore.report) =
      let c = r.counters in
      {
        ops = 1;
        failures =
          List.map
            (fun (v : Explore.violation) -> v.property ^ ": " ^ v.detail)
            r.violations;
        counts = { delivered = 0; states = c.nodes; latency = []; rounds = 0 };
        ident = Explore_counters c;
      }
    in
    let iterate _ = finish (Explore.run ~jobs:1 ~depth sc) in
    let traced sp _ =
      let r =
        Spans.with_span sp "explore.run" (fun () -> Explore.run ~jobs:1 ~depth sc)
      in
      let c = r.counters in
      List.iter
        (fun (name, k) -> Spans.count sp name k)
        [
          ("explore.nodes", c.nodes);
          ("explore.terminals", c.terminals);
          ("explore.cache_hits", c.cache_hits);
          ("explore.replayed_steps", c.replayed_steps);
          ("explore.distinct_states", c.distinct_states);
        ];
      Spans.with_span sp "bench.verdict" (fun () -> finish r)
    in
    {
      jobs = 1;
      inputs = 1;
      iterate;
      traced;
      probe = no_probe;
      work = (fun r -> r.counts);
      close = nothing;
    }
  in
  {
    name = "explore-chain";
    why =
      "exhaustive depth-14 schedule exploration of chain:2 with 2 messages, \
       every node rebuilt by replaying its prefix: the only workload for \
       the explorer";
    setup;
  }

let all = [ ring; disjoint; fuzz; claims; explore ]
let find name = List.find_opt (fun w -> w.name = name) all
