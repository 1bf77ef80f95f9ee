(* One benchmark run of one workload: set up, time iterations for the
   given number of seconds, check every verdict, and, with [trace],
   time traced iterations as well and attribute their wall time to
   layers. *)

type run = {
  correct : bool;  (** no failed verdict and the layer closure holds *)
  closed : bool;
      (** every traced iteration's top-level spans cover all but 10% of
          it (vacuously true untraced) *)
  attempted : int;
  failed : int;
  values : (string * float) list;  (** every catalogue metric *)
  notes : string list;  (** why the run is not correct *)
  env : (string * string) list;
  quartiles : (string * int list) list;
      (** p25, p50, p75 of the samples, and the wall samples themselves *)
  spans : Spans.span list;  (** the first traced iteration *)
}

(* Host calibration. On a shared VM the same work takes up to a quarter
   longer or shorter from one twenty-second stretch to the next, more
   than any bound the end-to-end metrics may have. So every timed
   sample is scaled by [calib_ref_ns / k], where [k] is the time this
   fixed kernel takes right around it: end-to-end times are seconds on
   a host where the kernel takes [calib_ref_ns]. The kernel allocates
   only short-lived minor blocks over a preallocated array, so its
   cost does not depend on the program's heap; the raw times are
   reported beside them as bench.raw_wall_s_p50 and bench.raw_cpu_s_p50. *)
let calib_ref_ns = 10_000_000
let calib_table = Array.make 50_000 0

let calibrate () =
  let t0 = Spans.now_ns () in
  let a = calib_table in
  for r = 1 to 100 do
    for i = 0 to Array.length a - 1 do
      a.(i) <- a.(i) + (i * r)
    done
  done;
  let acc = ref [] in
  for i = 1 to 100_000 do
    acc := if i land 63 = 0 then [] else (i, i) :: !acc
  done;
  ignore (Sys.opaque_identity !acc);
  Spans.now_ns () - t0

(* [x] scaled to the reference host, given the kernel times [k0] and
   [k1] measured before and after it. *)
let normalise x k0 k1 =
  int_of_float (float_of_int x *. float_of_int (2 * calib_ref_ns) /. float_of_int (k0 + k1))

let setup_reps = 3
let setup_sample_ns = 5_000_000
let percentile = Latency.percentile
let p50 xs = Option.value ~default:0 (percentile xs 50)
let quartiles xs = List.map (fun q -> Option.value ~default:0 (percentile xs q)) [ 25; 50; 75 ]
let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

let env ~(inst : Workloads.instance) =
  [
    ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
    ("jobs", string_of_int inst.jobs);
    ("OCAMLRUNPARAM", Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"));
    ("ocaml_version", Sys.ocaml_version);
  ]

(* Top-level closure: the part of an iteration span its direct
   children (the calls into layers) do not cover. *)
let unattributed spans =
  let children = Spans.children_of spans in
  List.filter_map
    (fun (s : Spans.span) ->
      if s.name = "iteration" then
        let kids =
          List.map (fun (c : Spans.span) -> (c.start_ns, c.stop_ns)) (children s.id)
        in
        Some
          ( Spans.duration s,
            Spans.duration s - Spans.covered ~lo:s.start_ns ~hi:s.stop_ns kids )
      else None)
    spans

let layer_values ~(inst : Workloads.instance) ~n sp probe spans =
  let by = Spans.by_name spans in
  let nf = float_of_int (max n 1) in
  let incl name =
    match Hashtbl.find_opt by name with
    | Some (i, _, _) -> float_of_int i /. nf /. 1e6
    | None -> 0.
  in
  let self name =
    match Hashtbl.find_opt by name with
    | Some (_, s, _) -> float_of_int s /. nf /. 1e6
    | None -> 0.
  in
  let spans_named name =
    match Hashtbl.find_opt by name with Some (_, _, k) -> float_of_int k /. nf | None -> 0.
  in
  let count name = float_of_int (Spans.get_count sp name) /. nf in
  let summed name = float_of_int (Spans.sum_ns sp name) /. nf /. 1e6 in
  let children = Spans.children_of spans in
  let pool_runs = List.filter (fun (s : Spans.span) -> s.name = "pool.run") spans in
  let longest =
    if pool_runs = [] then 0.
    else
      List.fold_left
        (fun a (s : Spans.span) ->
          a
          +. float_of_int
               (List.fold_left (fun m c -> max m (Spans.duration c)) 0 (children s.id)))
        0. pool_runs
      /. nf /. 1e6
  in
  let sharded = Spans.get_count sp "shard.count" > 0 in
  let probe_spans = Spans.spans probe in
  let probe_ms name =
    List.fold_left
      (fun a (s : Spans.span) ->
        if s.name = name then max a (float_of_int (Spans.duration s) /. 1e6) else a)
      0. probe_spans
  in
  let checker =
    List.map
      (fun c -> ("checker." ^ c ^ "_ms", incl ("checker." ^ c)))
      ([ "properties"; "integrity"; "termination"; "ordering"; "minimality";
         "group_sequential"; "claims" ]
      @ List.init 14 (fun i -> Printf.sprintf "claim%d" (i + 2)))
  in
  let counts =
    List.map
      (fun c -> (c, count c))
      [
        "shard.count"; "core.msgs"; "core.step_calls"; "core.steps_executed";
        "core.enabled_calls"; "core.enabled_skips"; "core.minor_words";
        "core.promoted_words"; "core.consensus_instances"; "core.consensus_rounds";
        "sim.ticks"; "net.sent"; "net.dropped"; "net.duplicated";
        "net.retransmissions"; "net.lost"; "trace.events"; "explore.nodes";
        "explore.terminals"; "explore.cache_hits"; "explore.replayed_steps";
        "explore.distinct_states"; "gc.minor_collections"; "gc.major_collections";
        "gc.promoted_words";
      ]
  in
  [
    ("loadgen.open_loop_ms", incl "loadgen.open_loop");
    ("loadgen.latency_summary_ms", incl "loadgen.latency");
    ("fuzz.trials", spans_named "fuzz.scenario_run");
    ("fuzz.scenario_gen_ms", incl "fuzz.scenario_gen");
    ("fuzz.scenario_run_ms", incl "fuzz.scenario_run");
    ("fd.mu_make_ms", incl "fd.mu_make");
    ("shard.plan_ms", incl "shard.plan");
    ("shard.hot_ms", if sharded then probe_ms "pool.task" else 0.);
    ("shard.jobs1_run_ms", if sharded then probe_ms "probe.shard_jobs1" else 0.);
    ("shard.jobs2_run_ms", if sharded then incl "pool.run" else 0.);
    ("pool.jobs", if pool_runs = [] then 0. else float_of_int inst.jobs);
    ("pool.tasks", spans_named "pool.task");
    ("pool.wall_ms", incl "pool.run");
    ("pool.busy_ms", incl "pool.task");
    ("pool.longest_task_ms", longest);
    ("pool.wait_ms", incl "pool.run" -. longest);
    ("core.create_ms", incl "core.create");
    ("core.step_ms", summed "core.step");
    ("core.enabled_ms", summed "core.enabled");
    ("sim.engine_ms", incl "sim.engine");
    ("sim.engine_self_ms", self "sim.engine");
    ("runner.snapshot_ms", summed "runner.snapshot");
    ("trace.index_build_ms", incl "trace.index");
    ("explore.run_ms", incl "explore.run");
    ("explore.visits", count "explore.nodes" +. count "explore.cache_hits");
  ]
  @ checker @ counts

let run ?(size = Workloads.Full) ~seconds ~trace ~seed (w : Workloads.t) =
  (* One set-up sample is the mean of as many fresh set-ups as fit in
     [setup_sample_ns] (at least one): some workloads set up in tens of
     nanoseconds, below what a single clock reading resolves. Samples
     are taken before the first iteration and again after every timed
     one, so their median spans the run rather than one moment of it. *)
  let setup_sample () =
    let rec go total n =
      let t0 = Spans.now_ns () in
      let inst = w.setup ~seed size in
      let total = total + (Spans.now_ns () - t0) and n = n + 1 in
      inst.close ();
      if total >= setup_sample_ns || n >= 100_000 then total * 1000 / n
      else go total n
    in
    go 0 0
  in
  let k_setup = calibrate () in
  let early = List.init setup_reps (fun _ -> setup_sample ()) in
  let k_setup' = calibrate () in
  let setups = ref (List.map (fun x -> normalise x k_setup k_setup') early) in
  let inst = w.setup ~seed size in
  Fun.protect ~finally:inst.close @@ fun () ->
  let attempted = ref 0 and failed = ref 0 and notes = ref [] and closed = ref true in
  let note s = if List.length !notes < 8 then notes := s :: !notes in
  let account (r : Workloads.result) =
    attempted := !attempted + r.ops;
    failed := !failed + List.length r.failures;
    List.iter note r.failures
  in
  (* The first run of each input fixes the deterministic counts every
     later run of it must reproduce. The reference run of input 0, untimed,
     also warms caches and lazy set-up. *)
  let refs = Array.make inst.inputs None in
  let input i = i mod inst.inputs in
  (* Only a digest of the identity data is kept, so the heap does not
     grow with the number of inputs run. *)
  let fingerprint (r : Workloads.result) =
    (r.counts, Digest.string (Marshal.to_string r.ident [ Marshal.No_sharing ]))
  in
  let reference = inst.iterate 0 in
  account reference;
  refs.(0) <- Some (fingerprint reference);
  let first_work = inst.work reference in
  (* A mismatch fails every verdict of the iteration. *)
  let check ~what i (r : Workloads.result) =
    match refs.(input i) with
    | None -> refs.(input i) <- Some (fingerprint r)
    | Some first ->
        if fingerprint r <> first then begin
          failed := !failed + r.ops - List.length r.failures;
          note what
        end
  in
  let budget_ns = seconds * 1_000_000_000 in
  let start = Spans.now_ns () in
  let until frac = start + int_of_float (float_of_int budget_ns *. frac) in
  let loop ~min_iters ~deadline body =
    let rec go i acc =
      if i >= min_iters && Spans.now_ns () >= deadline then List.rev acc
      else go (i + 1) (body i :: acc)
    in
    go 0 []
  in
  let bytes words = float_of_int (words * (Sys.word_size / 8)) /. 1e6 in
  (* Each sample is bracketed by kernel runs: (raw ns, kernel before,
     kernel after). *)
  let calibrated ~min_iters ~deadline body =
    let k = ref (calibrate ()) in
    loop ~min_iters ~deadline (fun i ->
        let x = body i in
        let k0 = !k in
        k := calibrate ();
        (x, k0, !k))
  in
  let timed =
    calibrated ~min_iters:3 ~deadline:(until (if trace then 0.5 else 1.0)) (fun i ->
        let c0 = cpu_ns () and t0 = Spans.now_ns () in
        let r = inst.iterate (input i) in
        let t1 = Spans.now_ns () and c1 = cpu_ns () in
        let heap = (Gc.quick_stat ()).Gc.heap_words in
        account r;
        check i r
          ~what:"an iteration's deterministic counts differ from its input's first run";
        let setup = setup_sample () in
        (t1 - t0, c1 - c0, r.ops, inst.work r, heap, setup))
  in
  let walls = List.map (fun ((w, _, _, _, _, _), _, _) -> w) timed
  and cpus = List.map (fun ((_, c, _, _, _, _), _, _) -> c) timed
  and norm_walls = List.map (fun ((w, _, _, _, _, _), k0, k1) -> normalise w k0 k1) timed
  and norm_cpus = List.map (fun ((_, c, _, _, _, _), k0, k1) -> normalise c k0 k1) timed
  and kernels = List.map (fun (_, k0, _) -> k0) timed
  and heaps = List.map (fun ((_, _, _, _, h, _), _, _) -> h) timed in
  setups :=
    !setups @ List.map (fun ((_, _, _, _, _, x), k0, k1) -> normalise x k0 k1) timed;
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let mean f =
    float_of_int (List.fold_left (fun a ((_, _, ops, w, _, _), _, _) -> a + f ops w) 0 timed)
    /. float_of_int (List.length timed)
  in
  let wall_s = float_of_int (p50 norm_walls) /. 1e9 in
  let lat k = float_of_int (Option.value ~default:0 (List.nth_opt first_work.latency k)) in
  let e2e =
    [
      ("setup_s", float_of_int (p50 !setups) /. 1e12);
      ("wall_s_p50", wall_s);
      ("cpu_s_p50", float_of_int (p50 norm_cpus) /. 1e9);
      ("heap_mb_p50", bytes (p50 heaps));
      ("gc.peak_heap_mb", bytes top_heap_words);
      ("bench.raw_wall_s_p50", float_of_int (p50 walls) /. 1e9);
      ("bench.raw_cpu_s_p50", float_of_int (p50 cpus) /. 1e9);
      ("bench.calib_ms", float_of_int (p50 kernels) /. 1e6);
      ("e2e.iteration_verdicts", mean (fun ops _ -> ops));
      ("e2e.iteration_states", mean (fun _ w -> w.Workloads.states));
      ("e2e.delivered_msgs", mean (fun _ w -> w.Workloads.delivered));
      ("e2e.sim_latency_p50_ticks", lat 0);
      ("e2e.sim_latency_p99_ticks", lat 1);
      ("e2e.sim_latency_samples", lat 3);
      ("bench.untraced_wall_s", wall_s);
    ]
  in
  let traced_part =
    if not trace then ([], [], [])
    else begin
      let sp = Spans.create () in
      let first = ref [] in
      let traced =
        calibrated ~min_iters:2 ~deadline:(until 1.0) (fun i ->
            let it = Spans.create () in
            let g0 = Gc.quick_stat () in
            let t0 = Spans.now_ns () in
            let r = Spans.with_span it "iteration" (fun () -> inst.traced it (input i)) in
            let t1 = Spans.now_ns () in
            let g1 = Gc.quick_stat () in
            Spans.count it "gc.minor_collections" (g1.minor_collections - g0.minor_collections);
            Spans.count it "gc.major_collections" (g1.major_collections - g0.major_collections);
            Spans.count it "gc.promoted_words"
              (int_of_float (g1.promoted_words -. g0.promoted_words));
            account r;
            if refs.(input i) = None then begin
              let u = inst.iterate (input i) in
              account u;
              refs.(input i) <- Some (fingerprint u)
            end;
            check i r
              ~what:"traced composition does not reproduce the untraced iteration";
            if !first = [] then first := Spans.spans it;
            Spans.merge ~into:sp it;
            t1 - t0)
      in
      let traced = List.map (fun (w, k0, k1) -> normalise w k0 k1) traced in
      let probe = Spans.create () in
      inst.probe probe;
      let spans = Spans.spans sp in
      let closure = unattributed spans in
      List.iter
        (fun (wall, rest) ->
          if float_of_int rest > 0.10 *. float_of_int wall then begin
            closed := false;
            note
              (Printf.sprintf
                 "layer closure: %.1f%% of a traced iteration is unattributed"
                 (100. *. float_of_int rest /. float_of_int wall))
          end)
        closure;
      let n = List.length traced in
      let per_iteration_ms f =
        float_of_int (List.fold_left (fun a x -> a + f x) 0 closure)
        /. float_of_int (max n 1) /. 1e6
      in
      ( [
          ("bench.traced_wall_s", float_of_int (p50 traced) /. 1e9);
          ("bench.iteration_ms", per_iteration_ms fst);
          ("bench.unattributed_ms", per_iteration_ms snd);
        ]
        @ layer_values ~inst ~n sp probe spans,
        [ ("traced_wall_ns", quartiles traced) ],
        !first )
    end
  in
  let layers, traced_q, spans = traced_part in
  let values =
    Metrics.derive
      (e2e @ layers
      @ [
          ("e2e.ops_attempted", float_of_int !attempted);
          ("e2e.ops_failed", float_of_int !failed);
        ])
  in
  {
    correct = !failed = 0 && !closed;
    closed = !closed;
    attempted = !attempted;
    failed = !failed;
    values;
    notes = List.rev !notes;
    env = env ~inst;
    quartiles =
      [
        ("setup_ps", quartiles !setups);
        ("wall_ns", quartiles walls);
        ("wall_ns_samples", walls);
        ("cpu_ns", quartiles cpus);
        ("calib_ns", quartiles kernels);
        ("norm_wall_ns", quartiles norm_walls);
        ("norm_cpu_ns", quartiles norm_cpus);
      ]
      @ traced_q;
    spans;
  }
