(* The metric catalogue: every name the benchmark reports, with its
   unit, and every ratio with the metrics it is computed from. The
   root BENCHMARK.json lists the same names; the tests hold the two
   together. *)

type better = Lower | Higher
type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* Reported with --trace 0, measured untraced, on every workload. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "wall_s_p50" "s" Lower;
    m "cpu_s_p50" "s" Lower;
    m "verdicts_per_s" "1/s" Higher;
    m "states_per_s" "1/s" Higher;
    m "heap_mb_p50" "MB" Lower;
  ]

let ms n = m n "ms" Lower
let cnt n = m n "count" Lower
let ratio n = m n "ratio" Higher

(* Reported with --trace 1. A layer a workload does not reach reads 0. *)
let per_layer =
  [
    ms "loadgen.open_loop_ms";
    ms "loadgen.latency_summary_ms";
    cnt "fuzz.trials";
    ms "fuzz.scenario_gen_ms";
    ms "fuzz.scenario_run_ms";
    ms "fd.mu_make_ms";
    ms "shard.plan_ms";
    cnt "shard.count";
    ms "shard.hot_ms";
    ms "shard.jobs1_run_ms";
    m "shard.hot_share" "ratio" Lower;
    ms "shard.jobs2_run_ms";
    ratio "shard.jobs2_speedup";
    cnt "pool.jobs";
    cnt "pool.tasks";
    ms "pool.wall_ms";
    ms "pool.busy_ms";
    ratio "pool.utilisation";
    ms "pool.longest_task_ms";
    ms "pool.wait_ms";
    ms "core.create_ms";
    cnt "core.msgs";
    cnt "core.step_calls";
    cnt "core.steps_executed";
    ratio "core.step_hit_ratio";
    ms "core.step_ms";
    m "core.step_ns" "ns" Lower;
    cnt "core.enabled_calls";
    cnt "core.enabled_skips";
    ratio "core.enabled_skip_ratio";
    ms "core.enabled_ms";
    m "core.enabled_ns" "ns" Lower;
    m "core.minor_words" "words" Lower;
    m "core.minor_words_per_step" "words" Lower;
    m "core.promoted_words" "words" Lower;
    m "core.promoted_words_per_step" "words" Lower;
    cnt "core.consensus_instances";
    cnt "core.consensus_rounds";
    m "core.rounds_per_instance" "ratio" Lower;
    m "core.events_per_msg" "ratio" Lower;
    ms "sim.engine_ms";
    ms "sim.engine_self_ms";
    cnt "sim.ticks";
    m "sim.steps_per_tick" "ratio" Higher;
    ms "runner.snapshot_ms";
    cnt "net.sent";
    cnt "net.dropped";
    cnt "net.duplicated";
    cnt "net.retransmissions";
    cnt "net.lost";
    cnt "trace.events";
    ms "trace.index_build_ms";
    ms "checker.properties_ms";
    ms "checker.integrity_ms";
    ms "checker.termination_ms";
    ms "checker.ordering_ms";
    ms "checker.minimality_ms";
    ms "checker.group_sequential_ms";
    ms "checker.claims_ms";
  ]
  @ List.init 14 (fun i -> ms (Printf.sprintf "checker.claim%d_ms" (i + 2)))
  @ [
      ms "explore.run_ms";
      cnt "explore.nodes";
      cnt "explore.terminals";
      cnt "explore.cache_hits";
      cnt "explore.visits";
      cnt "explore.replayed_steps";
      m "explore.replayed_steps_per_node" "ratio" Lower;
      ratio "explore.cache_hit_ratio";
      cnt "explore.distinct_states";
      m "explore.ns_per_replayed_step" "ns" Lower;
      cnt "gc.minor_collections";
      cnt "gc.major_collections";
      m "gc.promoted_words" "words" Lower;
      m "gc.peak_heap_mb" "MB" Lower;
      m "bench.raw_wall_s_p50" "s" Lower;
      m "bench.raw_cpu_s_p50" "s" Lower;
      ms "bench.calib_ms";
      m "bench.untraced_wall_s" "s" Lower;
      m "bench.traced_wall_s" "s" Lower;
      m "bench.trace_overhead_ratio" "ratio" Lower;
      ms "bench.iteration_ms";
      ms "bench.unattributed_ms";
      m "bench.unattributed_share" "ratio" Lower;
      m "e2e.iteration_verdicts" "count" Higher;
      m "e2e.iteration_states" "count" Higher;
      m "e2e.delivered_msgs" "count" Higher;
      m "e2e.msgs_per_s" "1/s" Higher;
      m "e2e.sim_latency_p50_ticks" "ticks" Lower;
      m "e2e.sim_latency_p99_ticks" "ticks" Lower;
      m "e2e.sim_latency_samples" "count" Higher;
      cnt "e2e.ops_attempted";
      cnt "e2e.ops_failed";
      m "e2e.ops_failed_ratio" "ratio" Lower;
    ]

(* [name = scale * product nums / product dens]; 0 when a denominator
   is 0. Every ratio is reported next to the metrics it divides. *)
let ratios =
  [
    ("verdicts_per_s", [ "e2e.iteration_verdicts" ], [ "wall_s_p50" ], 1.);
    ("states_per_s", [ "e2e.iteration_states" ], [ "wall_s_p50" ], 1.);
    ("e2e.msgs_per_s", [ "e2e.delivered_msgs" ], [ "bench.untraced_wall_s" ], 1.);
    ("e2e.ops_failed_ratio", [ "e2e.ops_failed" ], [ "e2e.ops_attempted" ], 1.);
    ("shard.hot_share", [ "shard.hot_ms" ], [ "shard.jobs1_run_ms" ], 1.);
    ("shard.jobs2_speedup", [ "shard.jobs1_run_ms" ], [ "shard.jobs2_run_ms" ], 1.);
    ("pool.utilisation", [ "pool.busy_ms" ], [ "pool.jobs"; "pool.wall_ms" ], 1.);
    ("core.step_hit_ratio", [ "core.steps_executed" ], [ "core.step_calls" ], 1.);
    ("core.step_ns", [ "core.step_ms" ], [ "core.step_calls" ], 1e6);
    ("core.enabled_skip_ratio", [ "core.enabled_skips" ], [ "core.enabled_calls" ], 1.);
    ("core.enabled_ns", [ "core.enabled_ms" ], [ "core.enabled_calls" ], 1e6);
    ("core.minor_words_per_step", [ "core.minor_words" ], [ "core.steps_executed" ], 1.);
    ( "core.promoted_words_per_step",
      [ "core.promoted_words" ],
      [ "core.steps_executed" ],
      1. );
    ( "core.rounds_per_instance",
      [ "core.consensus_rounds" ],
      [ "core.consensus_instances" ],
      1. );
    ("core.events_per_msg", [ "trace.events" ], [ "core.msgs" ], 1.);
    ("sim.steps_per_tick", [ "core.steps_executed" ], [ "sim.ticks" ], 1.);
    ( "explore.replayed_steps_per_node",
      [ "explore.replayed_steps" ],
      [ "explore.nodes" ],
      1. );
    ("explore.cache_hit_ratio", [ "explore.cache_hits" ], [ "explore.visits" ], 1.);
    ( "explore.ns_per_replayed_step",
      [ "explore.run_ms" ],
      [ "explore.replayed_steps" ],
      1e6 );
    ( "bench.trace_overhead_ratio",
      [ "bench.traced_wall_s" ],
      [ "bench.untraced_wall_s" ],
      1. );
    ( "bench.unattributed_share",
      [ "bench.unattributed_ms" ],
      [ "bench.iteration_ms" ],
      1. );
  ]

let all = end_to_end @ per_layer

(* Fill in every ratio from its bases; [base] holds the measured
   metrics. *)
let derive base =
  let get n = Option.value ~default:0. (List.assoc_opt n base) in
  let prod = List.fold_left (fun a n -> a *. get n) 1. in
  base
  @ List.map
      (fun (name, nums, dens, scale) ->
        let d = prod dens in
        (name, if d = 0. then 0. else scale *. prod nums /. d))
      ratios

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* The result line: exactly the metrics of [catalogue], in its order. *)
let json_line ~correct ~attempted ~failed ~catalogue values =
  let metric x =
    let v = Option.value ~default:0. (List.assoc_opt x.name values) in
    Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} x.name (number v) x.unit_
  in
  Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|}
    correct attempted failed
    (String.concat "," (List.map metric catalogue))
