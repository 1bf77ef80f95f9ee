(* Deterministic latency accounting over a run's trace: a message's
   latency is the tick span from its [Invoke] to the last delivery at a
   correct member of its destination group, counted only when every
   correct member delivered (the completion criterion of atomic
   multicast termination). All in simulated ticks — wall-clock never
   enters, so the numbers are bit-reproducible from the seed. *)

type summary = {
  delivered : int;
  undelivered : int;
  p50 : int option;
  p99 : int option;
  max : int option;
}

(* Nearest-rank percentile over sorted samples: the value at rank
   ⌈q·n/100⌉ (1-based, floored at 1). Total on q ∈ [0, 100] and n ≥ 1;
   [None] only on the empty array. *)
let percentile_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then None
  else
    let rank = max 1 (((q * n) + 99) / 100) in
    Some sorted.(min n rank - 1)

let sorted_array samples =
  let a = Array.of_list samples in
  Array.sort Int.compare a;
  a

let percentile samples q = percentile_sorted (sorted_array samples) q

(* Latency samples of every invoked message, in one pass over the
   deliveries: [last.(m)] is the last delivery tick of m at a correct
   member of its group. Deliveries at crashed processes don't count
   towards completion (a faulty member may stop anywhere), but every
   correct destination member must have delivered. *)
let samples outcome =
  let { Runner.topo; fp; trace; workload; _ } = outcome in
  let msgs = Workload.messages workload in
  let dst = Array.make (List.length msgs) 0 in
  List.iter (fun (msg : Amsg.t) -> dst.(msg.id) <- msg.dst) msgs;
  let correct = Failure_pattern.correct fp in
  let counted p m =
    Pset.mem p correct && Pset.mem p (Topology.group topo dst.(m))
  in
  let last = Array.make (Array.length dst) min_int in
  List.iter
    (fun (p, m, t, _) -> if counted p m && t > last.(m) then last.(m) <- t)
    (Trace.deliveries trace);
  List.filter_map
    (fun m ->
      match Trace.invoke_time trace ~m with
      | None -> None
      | Some t0 ->
          let members = Pset.inter correct (Topology.group topo dst.(m)) in
          if Pset.for_all (fun p -> Trace.delivered_at trace ~p ~m) members
          then Some (max t0 last.(m) - t0)
          else None)
    (Trace.invoked trace)

(* Simulated makespan of a set of outcomes, in ticks: first invoke to
   last delivery, inclusive. Shards of one scenario share the global
   clock (every shard's engine starts at tick 0), so the makespan of a
   sharded run is the max over shards, not the sum — pass all outcomes
   together. 0 when nothing was both invoked and delivered. *)
let span outcomes =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) o ->
        let trace = o.Runner.trace in
        let lo =
          List.fold_left
            (fun lo m ->
              match Trace.invoke_time trace ~m with
              | Some t -> min lo t
              | None -> lo)
            lo (Trace.invoked trace)
        in
        let hi =
          List.fold_left
            (fun hi (_, _, t, _) -> max hi t)
            hi (Trace.deliveries trace)
        in
        (lo, hi))
      (max_int, -1) outcomes
  in
  if hi < 0 || lo = max_int then 0 else hi - lo + 1

let summarize outcome =
  let invoked = List.length (Trace.invoked outcome.Runner.trace) in
  let sorted = sorted_array (samples outcome) in
  let delivered = Array.length sorted in
  {
    delivered;
    undelivered = invoked - delivered;
    p50 = percentile_sorted sorted 50;
    p99 = percentile_sorted sorted 99;
    max = percentile_sorted sorted 100;
  }
