(* The Algorithm 1 scaling suite.

   A grid of full [Runner.run] executions — disjoint topologies (no
   cyclic family, pure group-local traffic), rings (one global cyclic
   family, the γ-heavy regime) — crossed with K messages per group,
   plus the msgs axis: one 3-process group under open-loop load at a
   growing message count, unbatched and batched+pipelined, where a
   stepper whose per-step cost grows with the backlog shows up as a
   rising µs/msg.
   Each case is timed wall-clock over repeated runs until a quota is
   exhausted, and the result can be rendered as text or as one entry of
   the machine-readable `BENCH_algorithm1.json` trajectory, so every PR
   can compare its numbers against the recorded history.

   Wall-clock by design: this *is* the clock benchmark (exec scope
   already waives the rule; the attribute documents the intent). *)
[@@@lint.allow "wall-clock"]

type case = {
  name : string;
  topo : Topology.t;
  workload : Workload.t;
  batched : bool;  (** batching and pipelining *)
}

(* K messages per group, sources round-robin over the group members,
   all invoked at tick 0. Ids are assigned in group-major order. *)
let workload_k ~per_group topo =
  Workload.make
    (List.concat_map
       (fun g ->
         let members = Pset.to_list (Topology.group topo g) in
         let arity = List.length members in
         List.init per_group (fun i ->
             (List.nth members (i mod arity), g, 0)))
       (Topology.gids topo))
    topo

let mk_case shape groups k =
  let topo, label =
    match shape with
    | `Disjoint ->
        ( Topology.disjoint ~groups ~size:3,
          Printf.sprintf "disjoint-%dx3" groups )
    | `Ring -> (Topology.ring ~groups, Printf.sprintf "ring-%d" groups)
  in
  {
    name = Printf.sprintf "%s-K%d" label k;
    topo;
    workload = workload_k ~per_group:k topo;
    batched = false;
  }

(* The msgs axis: 4 multicasts per tick on one group. *)
let backlog_case ~batched msgs =
  let topo = Topology.disjoint ~groups:1 ~size:3 in
  {
    name =
      Printf.sprintf "backlog-%s-M%d"
        (if batched then "batched" else "unbatched")
        msgs;
    topo;
    workload =
      Loadgen.open_loop ~rng:(Rng.make 1) ~rate_pct:400 ~skew_pct:0
        ~duration:(msgs / 4) topo;
    batched;
  }

(* B1 is disjoint-8x3-K1; B2 is ring-6-K1 (the EXPERIMENTS.md names). *)
let cases ~smoke =
  let disjoint = if smoke then [ 4; 8 ] else [ 4; 8; 16; 32 ] in
  let rings = if smoke then [ 6 ] else [ 6; 12; 24 ] in
  let ks = if smoke then [ 1; 4 ] else [ 1; 4; 16 ] in
  let msgs = if smoke then [ 40; 100 ] else [ 100; 400; 1600 ] in
  List.concat_map (fun g -> List.map (mk_case `Disjoint g) ks) disjoint
  @ List.concat_map (fun g -> List.map (mk_case `Ring g) ks) rings
  @ List.concat_map
      (fun batched -> List.map (backlog_case ~batched) msgs)
      [ false; true ]

type result = {
  case : case;
  runs : int;
  ns_per_run : float;
  steps_per_sec : float;
  executed : int;
  ticks : int;
  consensus_instances : int;
  complete : bool;
  us_per_msg : float;
  minor_words_per_step : float;
}

let measure ~quota_ms c =
  let fp = Failure_pattern.never ~n:(Topology.n c.topo) in
  let go () =
    Runner.run ~seed:1 ~batching:c.batched ~pipelining:c.batched ~topo:c.topo
      ~fp ~workload:c.workload ()
  in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let o = go () in
  let total = ref (Unix.gettimeofday () -. t0) in
  let words = Gc.minor_words () -. w0 in
  let runs = ref 1 in
  let quota = float_of_int quota_ms /. 1000. in
  while !total < quota && !runs < 10_000 do
    let t0 = Unix.gettimeofday () in
    ignore (go ());
    total := !total +. (Unix.gettimeofday () -. t0);
    incr runs
  done;
  let mean = !total /. float_of_int !runs in
  let executed = o.Runner.stats.Engine.executed in
  {
    case = c;
    runs = !runs;
    ns_per_run = mean *. 1e9;
    steps_per_sec =
      (if mean > 0. then float_of_int o.Runner.stats.Engine.executed /. mean
       else 0.);
    executed = o.Runner.stats.Engine.executed;
    ticks = o.Runner.stats.Engine.ticks_used;
    consensus_instances = o.Runner.consensus_instances;
    complete = Runner.deliveries_complete o;
    us_per_msg = mean *. 1e6 /. float_of_int (max 1 (List.length c.workload));
    minor_words_per_step = words /. float_of_int (max 1 executed);
  }

let run_all ~quota_ms ~smoke =
  List.map (measure ~quota_ms) (cases ~smoke)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_ns ns =
  if ns >= 1e9 then Printf.sprintf "%8.2f s/run " (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%8.2f ms/run" (ns /. 1e6)
  else Printf.sprintf "%8.2f us/run" (ns /. 1e3)

let print_text results =
  print_endline "== Algorithm 1 scaling suite ==";
  List.iter
    (fun r ->
      Printf.printf
        "  %-24s %s  %10.0f steps/s  %8.2f us/msg  %7.0f words/step  %4d \
         ticks  %4d cons  %s(%d run%s)\n"
        r.case.name (pp_ns r.ns_per_run) r.steps_per_sec r.us_per_msg
        r.minor_words_per_step r.ticks
        r.consensus_instances
        (if r.complete then "" else "INCOMPLETE ")
        r.runs
        (if r.runs = 1 then "" else "s"))
    results

(* Minimal JSON emission: every value we write is a bool, an int-ish
   float, or a name made of [a-zA-Z0-9._-], so escaping is trivial; the
   float format never produces nan/inf because means are finite. *)
let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '"' | '\\' ->
          Buffer.add_char b '\\';
          Buffer.add_char b ch
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_case b r =
  Printf.bprintf b
    "    { \"name\": \"%s\", \"n\": %d, \"groups\": %d, \"msgs\": %d,\n\
    \      \"ns_per_run\": %.1f, \"steps_per_sec\": %.1f, \"runs\": %d,\n\
    \      \"executed\": %d, \"ticks\": %d, \"consensus_instances\": %d,\n\
    \      \"complete\": %b, \"us_per_msg\": %.2f,\n\
    \      \"minor_words_per_step\": %.1f }"
    (json_escape r.case.name) (Topology.n r.case.topo)
    (Topology.num_groups r.case.topo)
    (List.length r.case.workload)
    r.ns_per_run r.steps_per_sec r.runs r.executed r.ticks
    r.consensus_instances r.complete r.us_per_msg r.minor_words_per_step

(* One trajectory entry; the whole-file shape (schema + entries array)
   is shared with the committed BENCH_algorithm1.json so the same
   validator checks both. *)
let json_trajectory ~label ~quota_ms results =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"amcast-bench-trajectory/v1\",\n";
  Buffer.add_string b "  \"suite\": \"algorithm1-scaling\",\n";
  Buffer.add_string b "  \"entries\": [ {\n";
  Printf.bprintf b "    \"label\": \"%s\",\n" (json_escape label);
  Printf.bprintf b "    \"quota_ms\": %d,\n" quota_ms;
  Buffer.add_string b "    \"cases\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      json_case b r)
    results;
  Buffer.add_string b "\n    ]\n  } ]\n}\n";
  Buffer.contents b
