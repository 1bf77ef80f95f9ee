type variant = Vanilla | Strict | Pairwise

type datum =
  | Msg of int
  | Pend of int * Topology.gid * int
  | Stab of int * Topology.gid

let pp_datum fmt = function
  | Msg m -> Format.fprintf fmt "m%d" m
  | Pend (m, h, i) -> Format.fprintf fmt "(m%d,g%d,%d)" m h i
  | Stab (m, h) -> Format.fprintf fmt "(m%d,g%d)" m h

(* The a-priori total order over log entries (the paper's arbitrary
   but fixed tie-break). Constructor rank then lexicographic fields —
   the same order Stdlib.compare used to give, spelled out so it can
   never silently depend on the runtime representation. *)
let compare_datum a b =
  match (a, b) with
  | Msg m, Msg m' -> Int.compare m m'
  | Pend (m, h, i), Pend (m', h', i') ->
      let c = Int.compare m m' in
      if c <> 0 then c
      else
        let c = Int.compare h h' in
        if c <> 0 then c else Int.compare i i'
  | Stab (m, h), Stab (m', h') ->
      let c = Int.compare m m' in
      if c <> 0 then c else Int.compare h h'
  | a, b ->
      let rank = function Msg _ -> 0 | Pend _ -> 1 | Stab _ -> 2 in
      Int.compare (rank a) (rank b)

type t = {
  topo : Topology.t;
  mu : Mu.t;
  variant : variant;
  msgs : Amsg.t array;
  req_at : int array;
  (* LOG_{g∩h}, indexed by the normalised pair ((g, g) is LOG_g);
     [None] until first touched. An array because the lookup sits in
     every guard of the stepper's hot path. *)
  logs : datum Log.t option array array;
  (* The shared lists L_g of the Prop. 1 reduction (append order,
     newest first) and whether a message has been listed. *)
  lists : int list ref array;
  listed : bool array;
  (* Incremental view of m's Pend tuples in LOG_g — the groups covered
     and the highest recorded position. Tuples are only ever written by
     [try_pending], which keeps this cache exact, so the commit guard
     is O(|γ|) membership tests instead of a full LOG_g scan. *)
  pend_hs : Topology.gid list array;
  pend_k : int array;
  cons : (int * Topology.gid list, int) Consensus_table.t;
  phase : Trace.phase array array; (* phase.(p).(m) *)
  (* H(p, g) of line 20, cached: h_key.(p) maps g to the family key. *)
  h_key : (Topology.gid * Topology.gid list) list array;
  (* Messages addressed to a group the process belongs to. *)
  relevant : int list array;
  groups_of : Topology.gid list array;
  (* Per destination group, every other group it intersects — the full
     pend-coverage requirement of the pipelined commit gate. *)
  cover : Topology.gid list array;
  (* Channel faults (lib/net's Channel_fault) applied to the one piece
     of genuine inter-process communication the Prop. 1 reduction has:
     the multicast announcement published through L_g. [visible_at.(q).(m)]
     is the tick at which q's copy of the announcement arrives — drawn
     once, at listing time, from a stream keyed by (fault_seed, m, q),
     so it is a pure function of the scenario and independent of the
     schedule. [max_int] marks a copy lost for good (never under
     stubborn). [vis_horizon] is the largest finite arrival tick, the
     engine's [live_until] bound. *)
  faults : Channel_fault.spec;
  fault_seed : int;
  visible_at : int array array; (* visible_at.(p).(m) *)
  mutable vis_horizon : int;
  mutable links : Channel_fault.stats;
  mutable events : Trace.event list; (* newest first *)
  mutable seq : int;
  (* Enablement cache (hot-path indexing, DESIGN.md): a failed [step]
     attempt on (p, m) need not be retried until state it can observe
     has moved. [ver_group.(g)] counts mutations of L_g, req_at of
     g-bound messages and every log whose key contains g;
     [ver_proc.(p)] counts phase changes at p (guards only ever read
     the stepping process's phases). [fail_g/fail_p] remember the
     counters at the last fully-failed step of (p, m), [fail_t] its
     tick (for the invocation-time crossing of [try_list]). [cache]
     false restores the seed stepper — the reference the
     trace-identity tests compare against. *)
  cache : bool;
  (* Heavy-traffic engine modes (DESIGN.md "Batching, pipelining &
     group sharding"); both default to false, and with both false the
     stepper is bit-identical to the seed stepper.
     [batching]: a step drains every enabled action of the process (one
     cascade pass per action kind, repeated to a fixpoint) and commits
     whole per-group rounds — every fresh message of a round decides
     the same log position in one consensus round, the a-priori
     [compare_datum] breaking the tie. [pipelining]: [try_send] appends
     a listed message once its predecessors are merely *sent* (in
     [LOG_g]) instead of locally delivered, so consensus on slot k+1
     overlaps the delivery of slot k. [rounds] counts commit rounds —
     the consensus invocations a message-passing deployment would
     make; without batching it equals the number of proposals issued. *)
  batching : bool;
  pipelining : bool;
  mutable rounds : int;
  ver_group : int array;
  ver_proc : int array;
  fail_g : int array array;
  fail_p : int array array;
  fail_t : int array array;
  (* Per-drain guard memo of the batched stepper. Within one drain the
     process and tick are fixed, so every guard — including the γ- and
     [req_at]-dependent ones the cross-tick cache must special-case —
     is a pure function of the version counters: a failed attempt of
     sweep [i] on message [m] cannot fire again until
     [ver_group.(dst m)] or [ver_proc.(p)] moves. [att_stamp] holds the
     drain id the failure was recorded in (stale drains never match),
     [att_g]/[att_p] the counters it was recorded at. This is what
     keeps the widened fixpoint passes from re-walking every log
     prefix: a pass re-evaluates only the guards an earlier fire could
     have flipped. *)
  mutable drain : int;
  att_stamp : int array array; (* att_*.(sweep).(m) *)
  att_g : int array array;
  att_p : int array array;
  (* Delivered is absorbing at p: no guard of (p, m) can fire again, so
     [step] drops finished messages from [relevant.(p)] — the candidate
     set every sweep and cache probe iterates. [del_seen] counts local
     deliveries, [del_pruned] the count at the last prune; comparing
     the two makes the prune O(1) when nothing changed. Purely an
     iteration-space reduction: a pruned message fails every guard and
     is [skippable] anyway. *)
  del_seen : int array;
  del_pruned : int array;
  (* Membership caches for the two hottest [Log.mem] probes — a datum
     key hashes a variant tuple, so the Hashtbl probe costs more than
     the guard around it. [sent.(m)]: Msg m is in LOG_g (written only
     by [try_send]); [stab_done.(m).(h)]: Stab (m, h) is in LOG_g
     (written only by [try_stabilize]). Appends are irrevocable, so the
     caches are exact. *)
  sent : bool array;
  stab_done : bool array array;
  (* Cross-drain walk memo of the batched stepper, for the sweeps whose
     guard is a log-prefix walk (slots: 0 deliver, 1 stabilize,
     2 pending, 3 send). A failed walk records its first blocking
     message in [wb_blk.(s).(p).(m)] and the destination group's
     version counter in [wb_vg]; the sweep then skips the walk while
     the counter is unchanged and the blocker's local rank is still
     below the sweep's threshold. Sound because positions only grow
     upward (appends land at the head, [bump_and_lock] only raises) and
     every mutation of a (g, ·) log bumps [ver_group.(g)] — so the
     recorded predecessor stays a predecessor — while the blocker's
     rank at p is re-read directly on every probe. A failure on
     versioned content alone (an unsent message, a fully-stabilized
     sweep) is recorded as [att_blocked]. Unlike the per-drain memo
     these entries survive across drains and ticks; they are what makes
     the widened fixpoint passes and the re-drains of later ticks O(1)
     per still-blocked message instead of O(prefix). *)
  wb_blk : int array array array;
  wb_vg : int array array array;
  (* Per-group reposition counter: bumped (for every key group of the
     touched logs) by the commit actions, the only source of
     [Log.bump_and_lock] raises. Appends deliberately do NOT count: a
     fresh entry lands at the head, strictly above every existing
     datum, so it can never enter the recorded prefix of a blocked
     walk — the walk verdict for (m, log) only moves through
     repositions (tracked here) and local ranks (re-read on every
     probe). This is what lets blocker-keyed memo entries survive the
     append-heavy drains. *)
  bump_ver : int array;
}

let touch_group st g = st.ver_group.(g) <- st.ver_group.(g) + 1
let touch_proc st p = st.ver_proc.(p) <- st.ver_proc.(p) + 1

(* Touch every group whose logs an action at [p] on a g-bound message
   mutates: g itself plus the stepper's own groups (the (g, h) logs). *)
let touch_pair_logs st p g =
  touch_group st g;
  List.iter (fun h -> if h <> g then touch_group st h) st.groups_of.(p)

(* A commit action at [p] on a g-bound message may raise positions in
   every (g, h) log, h ∈ groups_of p; entries of those logs are g- or
   h-bound, so both key groups' walk memos must see the reposition. *)
let touch_bumps st p g =
  st.bump_ver.(g) <- st.bump_ver.(g) + 1;
  List.iter
    (fun h -> if h <> g then st.bump_ver.(h) <- st.bump_ver.(h) + 1)
    st.groups_of.(p)

let log st g h =
  let g, h = if g <= h then (g, h) else (h, g) in
  match st.logs.(g).(h) with
  | Some l -> l
  | None ->
      let l = Log.create ~compare:compare_datum in
      st.logs.(g).(h) <- Some l;
      l

let create ?(variant = Vanilla) ?(enablement_cache = true)
    ?(batching = false) ?(pipelining = false) ?(faults = Channel_fault.none)
    ?(fault_seed = 1) ~topo ~mu ~workload () =
  let reqs = Array.of_list workload in
  let k = Array.length reqs in
  Array.iteri
    (fun i { Workload.msg; _ } ->
      if msg.Amsg.id <> i then
        invalid_arg "Algorithm1.create: message ids must be 0 .. K-1")
    reqs;
  let n = Topology.n topo in
  let msgs = Array.map (fun r -> r.Workload.msg) reqs in
  let families = mu.Mu.families in
  let h_key =
    Array.init n (fun p ->
        List.map
          (fun g ->
            let key =
              match variant with
              | Pairwise -> []
              | Vanilla | Strict -> Topology.h_set topo families p g
            in
            (g, key))
          (Topology.groups_of topo p))
  in
  let relevant =
    Array.init n (fun p ->
        List.filter
          (fun m -> Pset.mem p (Topology.group topo msgs.(m).Amsg.dst))
          (List.init k Fun.id))
  in
  {
    topo;
    mu;
    variant;
    msgs;
    req_at = Array.map (fun r -> r.Workload.at) reqs;
    logs =
      Array.make_matrix (Topology.num_groups topo) (Topology.num_groups topo)
        None;
    lists = Array.init (Topology.num_groups topo) (fun _ -> ref []);
    listed = Array.make k false;
    pend_hs = Array.make k [];
    pend_k = Array.make k 0;
    cons = Consensus_table.create ();
    phase = Array.make_matrix n k Trace.Start;
    h_key;
    relevant;
    groups_of = Array.init n (Topology.groups_of topo);
    cover =
      Array.init (Topology.num_groups topo) (fun g ->
          List.filter
            (fun h -> h <> g && Topology.intersecting topo g h)
            (Topology.gids topo));
    faults;
    fault_seed;
    visible_at = Array.make_matrix n k 0;
    vis_horizon = 0;
    links = Channel_fault.stats_zero;
    events = [];
    seq = 0;
    cache = enablement_cache;
    batching;
    pipelining;
    rounds = 0;
    ver_group = Array.make (Topology.num_groups topo) 0;
    ver_proc = Array.make n 0;
    fail_g = Array.make_matrix n k (-1);
    fail_p = Array.make_matrix n k (-1);
    fail_t = Array.make_matrix n k (-1);
    drain = 0;
    att_stamp = Array.make_matrix 7 k 0;
    att_g = Array.make_matrix 7 k (-1);
    att_p = Array.make_matrix 7 k (-1);
    del_seen = Array.make n 0;
    del_pruned = Array.make n 0;
    sent = Array.make k false;
    stab_done = Array.make_matrix k (Topology.num_groups topo) false;
    wb_blk = Array.init 4 (fun _ -> Array.make_matrix n k 0);
    wb_vg = Array.init 4 (fun _ -> Array.make_matrix n k (-1));
    bump_ver = Array.make (Topology.num_groups topo) 0;
  }

let emit st ev =
  st.events <- ev st.seq :: st.events;
  st.seq <- st.seq + 1

let set_phase st p m ph time =
  st.phase.(p).(m) <- ph;
  touch_proc st p;
  match ph with
  | Trace.Delivered ->
      st.del_seen.(p) <- st.del_seen.(p) + 1;
      emit st (fun seq -> Trace.Deliver { m; p; time; seq })
  | ph -> emit st (fun seq -> Trace.Phase_change { m; p; phase = ph; time; seq })

let rank st p m = Trace.phase_rank st.phase.(p).(m)

(* Outcome codes of the batched [attempt_*] guards, kept unboxed for
   the hot sweeps: [att_fired] — the action executed; [att_blocked] —
   the guard failed on group-versioned content alone (retry once
   [ver_group] of the destination moves); [m' >= 0] — the guard failed
   on a prefix walk, blocked by message [m'] (retry once m''s local
   rank crosses the sweep's threshold, or on a content change);
   [att_opaque] — failed with no recordable witness (re-evaluated every
   pass). *)
let att_fired = -2
let att_blocked = -1
let att_opaque = -3

(* The first Msg entry strictly before [m] in the (g, h) log whose rank
   at [p] is below [r] — the witness keeping the walk guard false — or
   [-1] when the guard holds (trivially so when [m] is not in the log).
   One allocation-free prefix walk of the incremental index, short-
   circuiting at the witness. *)
let walk_blocker st p g h m r =
  let l = log st g h in
  if not (Log.mem l (Msg m)) then -1
  else
    match
      Log.first_before l (Msg m) (function
        | Msg m' -> rank st p m' < r
        | _ -> false)
    with
    | Some (Msg m') -> m'
    | _ -> -1

(* γ(g) as seen at (p, t), per variant. *)
let gamma_groups st p t g =
  match st.variant with
  | Pairwise -> []
  | Vanilla | Strict -> st.mu.Mu.gamma_groups p t g

(* ------------------------------------------------------------------ *)
(* Actions. Each returns true iff it executed.                         *)
(* ------------------------------------------------------------------ *)

(* Fault injection: the fate of each member's copy of the multicast
   announcement, drawn at listing time from a keyed stream. In the
   shared-memory reduction the announcement is the only genuine
   inter-process communication about m (the objects are quorum-
   emulated), so per-(q, m) arrival times model link faults faithfully.
   Only the earliest surviving copy matters for visibility — a
   duplicate re-announces something idempotent — but every wire copy is
   counted in [links]. *)
let draw_visibility st p t m =
  if not (Channel_fault.is_none st.faults) then
    Pset.iter
      (fun q ->
        if q = p then st.visible_at.(q).(m) <- t
        else begin
          let rng = Channel_fault.keyed ~seed:st.fault_seed [ m; q ] in
          let fate = Channel_fault.fate st.faults rng in
          st.links <- Channel_fault.record st.links fate;
          let v =
            match fate.Channel_fault.arrivals with
            | [] -> max_int
            | d :: ds -> t + List.fold_left min d ds
          in
          st.visible_at.(q).(m) <- v;
          if v < max_int && v > st.vis_horizon then st.vis_horizon <- v
        end)
      (Topology.group st.topo st.msgs.(m).Amsg.dst)

(* Whether p has received the announcement of m: trivially true before
   m is listed (every guard then sees m as absent anyway) and for ever
   after the drawn arrival tick. *)
let visible st p t m =
  Channel_fault.is_none st.faults
  || (not st.listed.(m))
  || t >= st.visible_at.(p).(m)

(* Whether the visibility gate filters candidate messages at all: only
   under an effective fault spec ([Channel_fault.none] passes
   everything, keeping fault-free runs bit-identical). *)
let gated st = not (Channel_fault.is_none st.faults)

(* multicast(m), lines 5–7, sequenced through L_g (Prop. 1): the source
   first publishes m in the shared list. *)
let try_list st p t m =
  let msg = st.msgs.(m) in
  if msg.Amsg.src = p && t >= st.req_at.(m) && not st.listed.(m) then begin
    let l = st.lists.(msg.Amsg.dst) in
    l := m :: !l;
    st.listed.(m) <- true;
    draw_visibility st p t m;
    touch_group st msg.Amsg.dst;
    emit st (fun seq -> Trace.Invoke { m; p; time = t; seq });
    true
  end
  else false

(* A.multicast(m): append m to LOG_g once every message listed before m
   in L_g has been delivered locally (helping included — any member of
   g may perform the append, preserving the ≺ invariant because the
   appender has delivered every predecessor). In pipelined mode the
   gate is relaxed to "every predecessor is already in LOG_g": the
   append order (and hence the shared log prefix) still follows the
   list order, but slots overlap — the per-message §4.1 group-
   sequentiality of the reduction is traded for pipeline depth while
   the vanilla atomic-multicast spec (integrity, termination, acyclic
   delivery order, minimality) is preserved; see DESIGN.md. *)
let attempt_send st p t m =
  let msg = st.msgs.(m) in
  let g = msg.Amsg.dst in
  if (not st.listed.(m)) || st.sent.(m) then att_blocked
  else
    let older =
      (* messages listed before m in L_g: the tail after m's occurrence
         in the newest-first shared list *)
      let rec after_m = function
        | [] -> []
        | x :: rest -> if x = m then rest else after_m rest
      in
      after_m !(st.lists.(g))
    in
    let fire () =
      ignore (Log.append (log st g g) (Msg m));
      st.sent.(m) <- true;
      touch_group st g;
      emit st (fun seq -> Trace.Send { m; p; time = t; seq });
      att_fired
    in
    if st.pipelining then
      (* [sent] flips only under [touch_group g]: a failure here is
         group-versioned content. *)
      if List.for_all (fun m' -> st.sent.(m')) older then fire ()
      else att_blocked
    else if List.for_all (fun m' -> st.phase.(p).(m') = Trace.Delivered) older
    then fire ()
    else att_opaque (* local-phase-dependent: no group-versioned witness *)

let try_send st p t m = attempt_send st p t m = att_fired

(* pending(m), lines 8–15. *)
let attempt_pending st p t m =
  let g = st.msgs.(m).Amsg.dst in
  if st.phase.(p).(m) <> Trace.Start then att_opaque
  else if not st.sent.(m) then att_blocked
  else
    match walk_blocker st p g g m (Trace.phase_rank Trace.Commit) with
    | b when b >= 0 -> b
    | _ ->
        let lg = log st g g in
        List.iter
          (fun h ->
            let i = Log.append (log st g h) (Msg m) in
            ignore (Log.append lg (Pend (m, h, i)));
            if not (List.mem h st.pend_hs.(m)) then
              st.pend_hs.(m) <- h :: st.pend_hs.(m);
            if i > st.pend_k.(m) then st.pend_k.(m) <- i)
          st.groups_of.(p);
        touch_pair_logs st p g;
        set_phase st p m Trace.Pending t;
        att_fired

let try_pending st p t m = attempt_pending st p t m = att_fired

(* The commit guard of lines 16–24, shared by the scalar and batched
   committers: [Some k] when every γ-group has a recorded (m, h, i)
   tuple, with [k] the highest such position — read from the exact
   [pend_hs]/[pend_k] cache instead of scanning LOG_g.

   Pipelined runs additionally wait for a pend tuple from EVERY
   intersecting group, not just γ. With deep pipelines an interior
   member (whose γ is empty — it sits in no intersection) can otherwise
   decide a slot k before a boundary member has pended m; that member's
   later append into the shared pair log then lands above k, and since
   [bump_and_lock] only raises, m ends at different effective positions
   in LOG_g(g) and LOG_g(h). Two messages inverted across the two logs
   deadlock the boundary member's deliver guard. Full coverage makes
   the decided k an upper bound on every append position of Msg m, so
   the bump pins m at exactly k in every log and the cross-log order is
   one total order (k, then [compare_datum]) — wait-for stays acyclic.
   The price is crash-liveness: a crashed boundary member stalls its
   group's commits, which γ-gating was designed to excuse (§4.1 trade,
   see DESIGN.md). *)
let commit_ready st p t m =
  let g = st.msgs.(m).Amsg.dst in
  let covered h = List.mem h st.pend_hs.(m) in
  if
    List.for_all covered (gamma_groups st p t g)
    && ((not st.pipelining) || List.for_all covered st.cover.(g))
  then Some st.pend_k.(m)
  else None

(* commit(m), lines 16–24. *)
let try_commit st p t m =
  let g = st.msgs.(m).Amsg.dst in
  st.phase.(p).(m) = Trace.Pending
  && (match commit_ready st p t m with
     | None -> false
     | Some k ->
         let fam_key = List.assoc g st.h_key.(p) in
         st.rounds <- st.rounds + 1;
         let k = Consensus_table.propose st.cons (m, fam_key) k in
         List.iter
           (fun h -> Log.bump_and_lock (log st g h) (Msg m) k)
           st.groups_of.(p);
         touch_pair_logs st p g;
         touch_bumps st p g;
         set_phase st p m Trace.Commit t;
         true)

(* Batched commit (lines 16–24, amortized): gather every Pending
   message of each destination group whose γ-guard holds and run ONE
   consensus round for the whole batch. Every member proposes the same
   decided position kd — the max of the members' observed positions —
   so the fresh messages of a round land at one log position and the
   a-priori [compare_datum] fixes the in-batch delivery order, exactly
   the Multi-Paxos batching trade. Consensus keys stay per-message, so
   agreement with concurrent scalar or foreign rounds is unchanged;
   only the invocation count ([rounds]) is amortized. Groups are walked
   in the deterministic [groups_of] order. *)
let batch_commit st p t candidates =
  let fired = ref false in
  List.iter
    (fun g ->
      let round =
        List.filter_map
          (fun m ->
            if st.msgs.(m).Amsg.dst = g && st.phase.(p).(m) = Trace.Pending
            then begin
              let cg = st.ver_group.(g) and cp = st.ver_proc.(p) in
              if
                st.att_stamp.(3).(m) = st.drain
                && st.att_g.(3).(m) = cg
                && st.att_p.(3).(m) = cp
              then None
              else
                match commit_ready st p t m with
                | Some k -> Some (m, k)
                | None ->
                    st.att_stamp.(3).(m) <- st.drain;
                    st.att_g.(3).(m) <- cg;
                    st.att_p.(3).(m) <- cp;
                    None
            end
            else None)
          candidates
      in
      match round with
      | [] -> ()
      | members ->
          let kd = List.fold_left (fun acc (_, k) -> max acc k) 0 members in
          let fam_key = List.assoc g st.h_key.(p) in
          st.rounds <- st.rounds + 1;
          List.iter
            (fun (m, _) ->
              let k = Consensus_table.propose st.cons (m, fam_key) kd in
              List.iter
                (fun h -> Log.bump_and_lock (log st g h) (Msg m) k)
                st.groups_of.(p);
              set_phase st p m Trace.Commit t)
            members;
          touch_pair_logs st p g;
          touch_bumps st p g;
          fired := true)
    st.groups_of.(p);
  !fired

(* stabilize(m, h), lines 25–29.

   Both steppers skip [h = g]: a [Stab (m, g)] tuple has no reader in
   any variant — [try_stable]'s Vanilla arm ranges over the γ-groups
   (which exclude [g]), Strict short-circuits [h = g], Pairwise never
   reads [Stab] — so writing it only pollutes LOG_g and lengthens every
   later predecessor walk over it. *)
let fire_stabilize st g m h =
  ignore (Log.append (log st g g) (Stab (m, h)));
  st.stab_done.(m).(h) <- true;
  touch_group st g

let try_stabilize st p t m h =
  let g = st.msgs.(m).Amsg.dst in
  ignore t;
  st.phase.(p).(m) = Trace.Commit
  && (not st.stab_done.(m).(h))
  && walk_blocker st p g h m (Trace.phase_rank Trace.Stable) < 0
  && begin
       fire_stabilize st g m h;
       true
     end

(* The batched stabilize sweep: every h ≠ g of p's groups at once ([p ∈
   g ∩ h] holds for each — m is relevant to p, so p ∈ group g, and the
   iteration ranges over p's own groups). When exactly one h is still
   blocked (the rest already stabilized) its walk blocker is the
   witness for the cross-drain memo; several blocked h's have no single
   witness and stay [att_opaque]. On the overlap topologies of the
   benchmarks a process sits in two groups, so the singleton case is
   the common one. *)
let attempt_stabilize st p t m =
  ignore t;
  let g = st.msgs.(m).Amsg.dst in
  if st.phase.(p).(m) <> Trace.Commit then att_opaque
  else begin
    let fired = ref false and blocked = ref 0 and witness = ref att_blocked in
    List.iter
      (fun h ->
        if h <> g && not st.stab_done.(m).(h) then
          match walk_blocker st p g h m (Trace.phase_rank Trace.Stable) with
          | b when b >= 0 ->
              incr blocked;
              witness := b
          | _ ->
              fire_stabilize st g m h;
              fired := true)
      st.groups_of.(p);
    if !fired then att_fired
    else if !blocked = 0 then att_blocked (* every h already stabilized *)
    else if !blocked = 1 then !witness
    else att_opaque
  end

(* stable(m), lines 30–33 (variant-dependent precondition, §6.1). *)
let try_stable st p t m =
  let g = st.msgs.(m).Amsg.dst in
  let has_stab h = st.stab_done.(m).(h) in
  st.phase.(p).(m) = Trace.Commit
  && (match st.variant with
     | Vanilla -> List.for_all has_stab (gamma_groups st p t g)
     | Pairwise -> true
     | Strict ->
         List.for_all
           (fun h ->
             h = g || not (Topology.intersecting st.topo g h)
             || has_stab h
             || st.mu.Mu.indicator g h p t = Some true)
           (Topology.gids st.topo))
  && begin
       set_phase st p m Trace.Stable t;
       true
     end

(* deliver(m), lines 34–37. The guard is a conjunction of walks over
   p's pair logs; the first failing log's first blocker falsifies the
   whole conjunction, so it is a sound single witness for the memo. *)
let attempt_deliver st p t m =
  let g = st.msgs.(m).Amsg.dst in
  if st.phase.(p).(m) <> Trace.Stable then att_opaque
  else
    let rec check = function
      | [] ->
          set_phase st p m Trace.Delivered t;
          att_fired
      | h :: hs -> (
          match walk_blocker st p g h m (Trace.phase_rank Trace.Delivered) with
          | b when b >= 0 -> b
          | _ -> check hs)
    in
    check st.groups_of.(p)

let try_deliver st p t m = attempt_deliver st p t m = att_fired

(* Whether a failed attempt on (p, m) recorded at [fail_t] with the
   current version counters could evaluate differently at time [t]: a
   delivered message never acts again; otherwise every guard is a pure
   function of counted state except the detector queries of commit
   (γ, phase Pending) and stable (γ / 1^{g∩h}, phase Commit) — absent
   under Pairwise where γ(g) = ∅ — and the [t ≥ req_at] threshold of
   try_list, which can only flip when t first crosses req_at. *)
let skippable st p t m =
  if not (visible st p t m) then
    (* The announcement is still in flight: no action of p on m can
       fire, and the crossing needs no cursor bookkeeping — listing
       already bumped [ver_group], and cursors for (p, m) are only ever
       written while m is visible (invisible messages never enter
       [live]), so the first visible attempt is never skipped. *)
    true
  else
  match st.phase.(p).(m) with
  | Trace.Delivered -> true
  | ph ->
      let msg = st.msgs.(m) in
      st.fail_g.(p).(m) = st.ver_group.(msg.Amsg.dst)
      && st.fail_p.(p).(m) = st.ver_proc.(p)
      && (match ph with
         | Trace.Pending | Trace.Commit -> st.variant = Pairwise
         | Trace.Start | Trace.Stable | Trace.Delivered -> true)
      && not
           (msg.Amsg.src = p
           && (not st.listed.(m))
           && t >= st.req_at.(m)
           && st.fail_t.(p).(m) < st.req_at.(m))

let prune_delivered st p =
  if st.del_seen.(p) <> st.del_pruned.(p) then begin
    st.relevant.(p) <-
      List.filter
        (fun m -> st.phase.(p).(m) <> Trace.Delivered)
        st.relevant.(p);
    st.del_pruned.(p) <- st.del_seen.(p)
  end

let enabled st ~pid:p ~time:t =
  prune_delivered st p;
  (not st.cache)
  || List.exists (fun m -> not (skippable st p t m)) st.relevant.(p)

(* One batched cascade pass: attempt every action kind over every
   candidate in the scalar stepper's priority order, executing ALL
   enabled actions instead of the first. Returns whether anything
   fired. Stabilize drains every (m, h) pair; commit goes through
   [batch_commit] so a pass costs one consensus round per group. *)
let batch_pass st p t candidates =
  let any = ref false in
  (* The γ- and [t]-dependent sweeps (stable, commit in [batch_commit],
     list) use the per-drain memo, slots 1/3/6 of [att_*]; the walk
     sweeps use the cross-drain [wb_*] memo instead. Every sweep
     applies to exactly one phase of (p, m), so the phase is checked
     before either memo probe — the common wrong-phase case costs one
     array read. *)
  let memo_eval i f m =
    let cg = st.ver_group.(st.msgs.(m).Amsg.dst) and cp = st.ver_proc.(p) in
    if
      st.att_stamp.(i).(m) = st.drain
      && st.att_g.(i).(m) = cg
      && st.att_p.(i).(m) = cp
    then ()
    else if f m then any := true
    else begin
      st.att_stamp.(i).(m) <- st.drain;
      st.att_g.(i).(m) <- cg;
      st.att_p.(i).(m) <- cp
    end
  in
  let run i ph f =
    List.iter (fun m -> if st.phase.(p).(m) = ph then memo_eval i f m) candidates
  in
  (* Walk sweeps go through the cross-drain memo: probe the recorded
     witness first, evaluate only when it no longer keeps the guard
     false, and record the fresh outcome. [r] is the sweep's rank
     threshold (unused for send, whose failures are content-keyed). *)
  let run_walk s ph r attempt =
    List.iter
      (fun m ->
        if st.phase.(p).(m) = ph then begin
          let g = st.msgs.(m).Amsg.dst in
          (* Content-keyed entries ([att_blocked]) watch [ver_group];
             blocker entries only need the reposition counter — appends
             cannot unblock a recorded walk. *)
          let b = st.wb_blk.(s).(p).(m) in
          let skip =
            if b = att_blocked then st.wb_vg.(s).(p).(m) = st.ver_group.(g)
            else
              b >= 0
              && st.wb_vg.(s).(p).(m) = st.bump_ver.(g)
              && rank st p b < r
          in
          if not skip then begin
            let res = attempt m in
            if res = att_fired then any := true
            else if res = att_blocked then begin
              st.wb_vg.(s).(p).(m) <- st.ver_group.(g);
              st.wb_blk.(s).(p).(m) <- att_blocked
            end
            else if res >= 0 then begin
              st.wb_vg.(s).(p).(m) <- st.bump_ver.(g);
              st.wb_blk.(s).(p).(m) <- res
            end
          end
        end)
      candidates
  in
  run_walk 0 Trace.Stable
    (Trace.phase_rank Trace.Delivered)
    (attempt_deliver st p t);
  run 1 Trace.Commit (try_stable st p t);
  run_walk 1 Trace.Commit
    (Trace.phase_rank Trace.Stable)
    (attempt_stabilize st p t);
  if batch_commit st p t candidates then any := true;
  run_walk 2 Trace.Start
    (Trace.phase_rank Trace.Commit)
    (attempt_pending st p t);
  run_walk 3 Trace.Start 0 (attempt_send st p t);
  run 6 Trace.Start (try_list st p t);
  !any

let step st ~pid:p ~time:t =
  prune_delivered st p;
  (* The visibility gate applies in both stepper modes — it is part of
     the semantics, not of the enablement cache (which merely subsumes
     it via [skippable]). With [Channel_fault.none] both filters pass
     everything through untouched, keeping fault-free runs bit-identical
     to the pre-fault stepper. *)
  let base =
    if not (gated st) then st.relevant.(p)
    else List.filter (fun m -> visible st p t m) st.relevant.(p)
  in
  let live =
    if st.cache then List.filter (fun m -> not (skippable st p t m)) base
    else base
  in
  match live with
  | [] -> false
  | _ ->
      let executed =
        if st.batching then begin
          (* Drain to a fixpoint: the first pass runs over the cache-
             filtered [live] set (a fired action bumps version counters,
             so later passes must widen to the full visible [base] —
             previously-skippable messages may have become enabled).
             The per-drain memo keeps the widened passes cheap. *)
          st.drain <- st.drain + 1;
          if batch_pass st p t live then begin
            while batch_pass st p t base do
              ()
            done;
            true
          end
          else false
        end
        else
          let try_each f l = List.exists f l in
          try_each (try_deliver st p t) live
          || try_each (try_stable st p t) live
          || try_each
               (fun m ->
                 let g = st.msgs.(m).Amsg.dst in
                 st.phase.(p).(m) = Trace.Commit
                 && try_each
                      (fun h ->
                        h <> g
                        && Pset.mem p (Topology.inter st.topo g h)
                        && try_stabilize st p t m h)
                      st.groups_of.(p))
               live
          || try_each (try_commit st p t) live
          || try_each (try_pending st p t) live
          || try_each (try_send st p t) live
          || try_each (try_list st p t) live
      in
      let record m =
        st.fail_g.(p).(m) <- st.ver_group.(st.msgs.(m).Amsg.dst);
        st.fail_p.(p).(m) <- st.ver_proc.(p);
        st.fail_t.(p).(m) <- t
      in
      if st.cache then
        if executed then begin
          (* Batched drains end with a full pass that fired nothing:
             that pass proved every visible candidate quiescent at the
             current version counters, so the failure cursors may be
             recorded exactly as after a failed scalar attempt. *)
          if st.batching then List.iter record base
        end
        else List.iter record live;
      executed

let trace st = Trace.make ~n:(Topology.n st.topo) (List.rev st.events)
let phase st ~pid ~m = st.phase.(pid).(m)

let log_keys st =
  let k = Topology.num_groups st.topo in
  let acc = ref [] in
  for g = k - 1 downto 0 do
    for h = k - 1 downto g do
      match st.logs.(g).(h) with
      | Some _ -> acc := (g, h) :: !acc
      | None -> ()
    done
  done;
  !acc

let log_snapshot st (g, h) =
  let k = Topology.num_groups st.topo in
  if g < 0 || h < 0 || g >= k || h >= k then []
  else
    match st.logs.(g).(h) with
    | None -> []
    | Some l ->
        List.map (fun d -> (d, Log.pos l d, Log.locked l d)) (Log.entries l)

let consensus_instances st = Consensus_table.instances st.cons

let listed st ~m = st.listed.(m)
let list_snapshot st g = !(st.lists.(g))

let consensus_decisions st =
  let cmp ((m, fam), v) ((m', fam'), v') =
    let c = Int.compare m m' in
    if c <> 0 then c
    else
      let c = List.compare Int.compare fam fam' in
      if c <> 0 then c else Int.compare v v'
  in
  Consensus_table.decisions st.cons ~cmp

let release st ~m ~time =
  if st.req_at.(m) > time then begin
    st.req_at.(m) <- time;
    (* Only loosens the enablement cache: a lowered req_at can turn
       try_list on, and the source's cursor may predate the crossing. *)
    touch_group st st.msgs.(m).Amsg.dst
  end

let consensus_rounds st = st.rounds

let delivered st ~pid ~m = st.phase.(pid).(m) = Trace.Delivered
let channel_faults st = st.faults
let link_stats st = st.links
let visibility_horizon st = st.vis_horizon
let event_seq st = st.seq

let visibility st ~pid ~m ~time =
  if Channel_fault.is_none st.faults || not st.listed.(m) then `Visible
  else
    let v = st.visible_at.(pid).(m) in
    if v = max_int then `Lost
    else if time >= v then `Visible
    else `Pending (v - time)
