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
  (* The shared lists L_g of the Prop. 1 reduction, in listing order:
     [lists.(g).(0 .. list_len.(g) - 1)] (capacity: the messages bound
     to g). [lidx.(m)] is m's index in its list, [-1] while unlisted. *)
  lists : int array array;
  list_len : int array;
  lidx : int array;
  (* Incremental view of m's Pend tuples in LOG_g — the groups covered
     and the highest recorded position. Tuples are only ever written by
     [fire_pending], which keeps this cache exact, so the commit guard
     is O(|γ|) membership tests instead of a full LOG_g scan. *)
  pend_hs : Topology.gid list array;
  pend_k : int array;
  cons : (int * Topology.gid list, int) Consensus_table.t;
  phase : Trace.phase array array; (* phase.(p).(m) *)
  (* H(p, g) of line 20, cached: h_key.(p) maps g to the family key. *)
  h_key : (Topology.gid * Topology.gid list) list array;
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
  (* [cache] selects the stepper: [true] the wake-set stepper below,
     [false] the reference full scan the trace-identity tests compare
     against. Heavy-traffic engine modes (DESIGN.md "Batching,
     pipelining & group sharding"); both default to false, and with
     both false the stepper is bit-identical to the seed stepper.
     [batching]: a step drains every enabled action of the process (one
     cascade pass per action kind, repeated to a fixpoint) and commits
     whole per-group rounds — every fresh message of a round decides
     the same log position in one consensus round, the a-priori
     [compare_datum] breaking the tie. [pipelining]: [fire_send] appends
     a listed message once its predecessors are merely *sent* (in
     [LOG_g]) instead of locally delivered, so consensus on slot k+1
     overlaps the delivery of slot k. [rounds] counts commit rounds —
     the consensus invocations a message-passing deployment would
     make; without batching it equals the number of proposals issued. *)
  cache : bool;
  batching : bool;
  pipelining : bool;
  mutable rounds : int;
  (* Membership caches for the two hottest [Log.mem] probes. [sent.(m)]:
     Msg m is in LOG_g (written only by [fire_send]);
     [stab_done.(m).(h)]: Stab (m, h) is in LOG_g (written only by
     [fire_stabilize]). Appends are irrevocable, so both are exact. *)
  sent : bool array;
  stab_done : bool array array;
  (* Reference stepper only ([||] otherwise): the messages addressed to
     a group of each process, in id order — the full scan. *)
  relevant : int list array;
  (* The wake-set stepper (DESIGN.md "Hot-path indexing"); every array
     below is [||] under the reference stepper. A message enters
     process p's candidate set only once some guard of p could fire on
     it, and leaves it when every guard it is eligible for has failed,
     registering what those guards read; only a change of that state
     puts it back.
     - [cls st p m] (byte m of [wcls.(p)], offset by 2): [unadmitted]
       (p cannot see m yet), [parked] (admitted, every guard false
       until woken) or the class [c >= 0] whose woken set holds m, plus
       [retimed] while m was woken by its heap entry alone: nothing it
       waits on moved, so its walk registrations are still in place.
       The class is a function of p's phase of m and of [sent]/[lidx]:
       exactly the sweep that can fire on it.
     - [due.(p)] ([due_n.(p)] entries): a binary min-heap of
       [time * k + m] — admissions at [req_at] (the source) or at the
       announcement's arrival, and the re-probe of a guard that read a
       detector, at the tick the read may change.
     - [wset.(p)]: per class c, the count of its woken set at [c] and
       the set itself, a bitset of [nw] words of 63 ids each, from word
       [classes + c * nw]; with more than one word, its lowest/highest
       possibly-nonzero word follow at [hints st + 2 * c + _].
     - [waiters.(p).(b)]: messages whose walk at p is blocked by
       entry [b], as [m lsl 3 lor r] with r the walk's rank threshold;
       the row is [||] until p's first blocked walk.
     Small per-process rows: the fuzzer's many tiny runs allocate
     little, which keeps OCaml 5's size-classed major heap small. *)
  k : int;
  nw : int;
  wcls : Bytes.t array;
  wset : int array array;
  due : int array array;
  due_n : int array;
  waiters : int list array array;
}

let log st g h =
  let g, h = if g <= h then (g, h) else (h, g) in
  match st.logs.(g).(h) with
  | Some l -> l
  | None ->
      let l = Log.create ~compare:compare_datum in
      st.logs.(g).(h) <- Some l;
      l

(* ------------------------------------------------------------------ *)
(* Wake sets (the wake-set stepper only).                              *)
(* ------------------------------------------------------------------ *)

let unadmitted = -2
let parked = -1

(* Candidate classes, in the scalar stepper's action priority order:
   each is the one sweep that can fire on a message in that state. *)
let c_deliver = 0 (* Stable *)
let c_stable = 1 (* Commit: stable, then stabilize *)
let c_commit = 2 (* Pending *)
let c_pending = 3 (* Start, sent *)
let c_send = 4 (* Start, listed *)
let c_list = 5 (* Start, unlisted: only ever admitted at the source *)
let classes = 6

let class_of st p m =
  match st.phase.(p).(m) with
  | Trace.Start ->
      if st.sent.(m) then c_pending
      else if st.lidx.(m) >= 0 then c_send
      else c_list
  | Trace.Pending -> c_commit
  | Trace.Commit -> c_stable
  | Trace.Stable -> c_deliver
  | Trace.Delivered -> parked

let retimed = 8

let hints st = classes * (1 + st.nw)
let cls st p m = Char.code (Bytes.unsafe_get st.wcls.(p) m) - 2
let set_cls st p m v = Bytes.unsafe_set st.wcls.(p) m (Char.unsafe_chr (v + 2))

let insert st p c m =
  let ws = st.wset.(p) in
  let w = m / 63 in
  let i = classes + (c * st.nw) + w in
  ws.(i) <- ws.(i) lor (1 lsl (m mod 63));
  ws.(c) <- ws.(c) + 1;
  if st.nw > 1 then begin
    let h = hints st + (2 * c) in
    if w < ws.(h) then ws.(h) <- w;
    if w > ws.(h + 1) then ws.(h + 1) <- w
  end;
  set_cls st p m c

let park st p m =
  let w = cls st p m in
  if w >= 0 then begin
    let c = w land 7 and ws = st.wset.(p) in
    let i = classes + (c * st.nw) + (m / 63) in
    ws.(i) <- ws.(i) land lnot (1 lsl (m mod 63));
    ws.(c) <- ws.(c) - 1;
    set_cls st p m parked
  end

(* Put an admitted m into the woken set of its current class at p
   (moving it if its class changed; a delivered m leaves for good). *)
let wake st p m =
  let w = cls st p m in
  if w <> unadmitted then begin
    let w = if w >= 0 then w land 7 else w in
    set_cls st p m w;
    let c = class_of st p m in
    if c <> w then begin
      park st p m;
      if c >= 0 then insert st p c m
    end
  end

let admit st p m =
  if cls st p m = unadmitted then set_cls st p m parked;
  wake st p m

let woken st p =
  let rec any c = c < classes && (st.wset.(p).(c) > 0 || any (c + 1)) in
  any 0

(* Index of the lowest set bit of a nonzero word. *)
let ctz x =
  let x = ref (x land -x) and n = ref 0 in
  if !x land 0xFFFFFFFF = 0 then (x := !x lsr 32; n := 32);
  if !x land 0xFFFF = 0 then (x := !x lsr 16; n := !n + 16);
  if !x land 0xFF = 0 then (x := !x lsr 8; n := !n + 8);
  if !x land 0xF = 0 then (x := !x lsr 4; n := !n + 4);
  if !x land 0x3 = 0 then (x := !x lsr 2; n := !n + 2);
  if !x land 0x1 = 0 then incr n;
  !n

(* The smallest woken id [>= from] of class c at p, or [-1]. *)
let next_woken st p c from =
  let ws = st.wset.(p) in
  if ws.(c) = 0 || from >= st.k then -1
  else begin
    let base = classes + (c * st.nw) and w0 = from / 63 in
    let h = hints st + (2 * c) and multi = st.nw > 1 in
    let hi = if multi then ws.(h + 1) else 0 in
    let w = ref (if multi && w0 < ws.(h) then ws.(h) else w0) in
    let found = ref (-1) in
    while !found < 0 && !w <= hi do
      let bits = ws.(base + !w) in
      if bits = 0 then begin
        if multi && !w = ws.(h) then ws.(h) <- !w + 1;
        incr w
      end
      else
        let bits = if !w = w0 then bits land (-1 lsl (from mod 63)) else bits in
        if bits = 0 then incr w else found := (!w * 63) + ctz bits
    done;
    !found
  end

(* Visit the woken ids [>= from] of class c at p in ascending order,
   including ids woken ahead of the cursor during the sweep: [find]
   stops at the first [f st p t m = true] and returns whether there was
   one, [sweep] visits them all and returns whether any [f] held. *)
let rec find_woken st p t c f from =
  match next_woken st p c from with
  | -1 -> false
  | m -> f st p t m || find_woken st p t c f (m + 1)

let rec sweep_woken st p t c f from any =
  match next_woken st p c from with
  | -1 -> any
  | m ->
      let fired = f st p t m in
      sweep_woken st p t c f (m + 1) (any || fired)

let due_push st p time m =
  let key = (time * st.k) + m in
  let n = st.due_n.(p) in
  if n = Array.length st.due.(p) then begin
    let grown = Array.make (max 8 (2 * n)) 0 in
    Array.blit st.due.(p) 0 grown 0 n;
    st.due.(p) <- grown
  end;
  let h = st.due.(p) in
  let i = ref n in
  while !i > 0 && h.((!i - 1) / 2) > key do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- key;
  st.due_n.(p) <- n + 1

(* Admit (or re-wake) every entry of p's heap due at or before [t]. *)
let pop_due st p t =
  let limit = (t + 1) * st.k in
  while st.due_n.(p) > 0 && st.due.(p).(0) < limit do
    let h = st.due.(p) in
    let top = h.(0) and n = st.due_n.(p) - 1 in
    let last = h.(n) in
    st.due_n.(p) <- n;
    let i = ref 0 and stop = ref false in
    while not !stop do
      let l = (2 * !i) + 1 in
      if l >= n then stop := true
      else begin
        let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
        if h.(c) < last then begin
          h.(!i) <- h.(c);
          i := c
        end
        else stop := true
      end
    done;
    if n > 0 then h.(!i) <- last;
    let m = top mod st.k in
    let was = cls st p m in
    admit st p m;
    if was = parked && cls st p m >= 0 then
      set_cls st p m (cls st p m lor retimed)
  done

let wait_on st p b m r =
  if Array.length st.waiters.(p) = 0 then st.waiters.(p) <- Array.make st.k [];
  st.waiters.(p).(b) <- ((m lsl 3) lor r) :: st.waiters.(p).(b)

(* Wake the waiters of entry b at p whose threshold is now met: [r] is
   b's new rank at p, or [max_int] when b was repositioned. *)
let wake_waiters st p b r =
  let row = st.waiters.(p) in
  match if Array.length row = 0 then [] else row.(b) with
  | [] -> ()
  | ws ->
      row.(b) <- [];
      List.iter
        (fun x ->
          if x land 7 <= r then wake st p (x lsr 3) else row.(b) <- x :: row.(b))
        ws

(* ------------------------------------------------------------------ *)

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
  let n = Topology.n topo and ng = Topology.num_groups topo in
  let msgs = Array.map (fun r -> r.Workload.msg) reqs in
  let req_at = Array.map (fun r -> r.Workload.at) reqs in
  let families = mu.Mu.families in
  let groups_of = Array.init n (Topology.groups_of topo) in
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
          groups_of.(p))
  in
  let bound = Array.make ng 0 in
  Array.iter (fun m -> bound.(m.Amsg.dst) <- bound.(m.Amsg.dst) + 1) msgs;
  let member p m = Pset.mem p (Topology.group topo msgs.(m).Amsg.dst) in
  let fast = enablement_cache in
  let some f = if fast then f () else [||] in
  let nw = (k + 62) / 63 in
  (* The sources' admissions, due at [req_at]: each heap starts sorted,
     in a power-of-two array (few size classes in the major heap). *)
  let keys = Array.make (if fast then n else 0) [] in
  for m = k - 1 downto 0 do
    let src = msgs.(m).Amsg.src in
    if fast && req_at.(m) <> Workload.never && member src m then
      keys.(src) <- ((req_at.(m) * k) + m) :: keys.(src)
  done;
  let due =
    Array.map
      (fun l ->
        let rec size c = if c >= List.length l then c else size (2 * c) in
        let h = match l with [] -> [||] | _ -> Array.make (size 8) 0 in
        List.iteri (fun i key -> h.(i) <- key) (List.sort Int.compare l);
        h)
      keys
  in
  {
    topo;
    mu;
    variant;
    msgs;
    req_at;
    logs = Array.make_matrix ng ng None;
    lists = Array.map (fun c -> Array.make c 0) bound;
    list_len = Array.make ng 0;
    lidx = Array.make k (-1);
    pend_hs = Array.make k [];
    pend_k = Array.make k 0;
    cons = Consensus_table.create ();
    phase = Array.make_matrix n k Trace.Start;
    h_key;
    groups_of;
    cover =
      Array.init ng (fun g ->
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
    sent = Array.make k false;
    stab_done = Array.make_matrix k ng false;
    relevant =
      (if fast then [||]
       else
         Array.init n (fun p -> List.filter (member p) (List.init k Fun.id)));
    k;
    nw;
    wcls = some (fun () -> Array.init n (fun _ -> Bytes.make k '\000'));
    wset =
      some (fun () ->
          let hints = classes * (1 + nw) in
          Array.init n (fun _ ->
              Array.init
                (if nw > 1 then hints + (2 * classes) else hints)
                (fun i ->
                  if i < hints then 0 else if i mod 2 = 0 then max_int else -1)));
    due;
    due_n = Array.map List.length keys;
    waiters = some (fun () -> Array.make n [||]);
  }

(* Every array the stepper (or [release]) writes is copied to the
   depth of its mutable cells; everything else is either never written
   after [create] (topology, μ, messages, [h_key], [groups_of],
   [cover], [relevant]) or an immutable value held in a mutable field
   (the scalars, [links], the [events] list), which [{ st with ... }]
   already separates. The announcement
   arrival ticks ([visible_at]) are drawn only under an active fault
   spec and shared outside it, where neither copy can ever write them;
   the wake-set arrays are [||] under the reference stepper. *)
let copy st =
  let copy2 a = Array.map Array.copy a in
  {
    st with
    req_at = Array.copy st.req_at;
    logs = Array.map (Array.map (Option.map Log.copy)) st.logs;
    lists = copy2 st.lists;
    list_len = Array.copy st.list_len;
    lidx = Array.copy st.lidx;
    pend_hs = Array.copy st.pend_hs;
    pend_k = Array.copy st.pend_k;
    cons = Consensus_table.copy st.cons;
    phase = copy2 st.phase;
    visible_at =
      (if Channel_fault.is_none st.faults then st.visible_at
       else copy2 st.visible_at);
    sent = Array.copy st.sent;
    stab_done = copy2 st.stab_done;
    wcls = Array.map Bytes.copy st.wcls;
    wset = copy2 st.wset;
    due = copy2 st.due;
    due_n = Array.copy st.due_n;
    waiters = copy2 st.waiters;
  }

let emit st ev =
  st.events <- ev st.seq :: st.events;
  st.seq <- st.seq + 1

let rank st p m = Trace.phase_rank st.phase.(p).(m)
let dst st m = st.msgs.(m).Amsg.dst

(* Wake m at every member of its group that the predicate selects. *)
let wake_members st m f =
  Pset.iter (fun q -> if f q then wake st q m) (Topology.group st.topo (dst st m))

let set_phase st p m ph time =
  st.phase.(p).(m) <- ph;
  (match ph with
  | Trace.Delivered -> emit st (fun seq -> Trace.Deliver { m; p; time; seq })
  | ph -> emit st (fun seq -> Trace.Phase_change { m; p; phase = ph; time; seq }));
  if st.cache then begin
    wake st p m;
    wake_waiters st p m (Trace.phase_rank ph)
  end

(* The first Msg entry strictly before [m] in the (g, h) log whose rank
   at [p] is below [r] — the witness keeping the walk guard false — or
   [-1] when the guard holds (trivially so when [m] is not in the log).
   The reference stepper walks from the lowest entry; the wake-set
   stepper from p's frontier for [r] in that log. The frontier is sound
   because an entry's slot only rises (appends land at the head,
   [bump_and_lock] only raises) and so does its rank at p: once an entry
   has reached [r] at p it never blocks this walk again, the
   monotonicity [Log.first_before_front] asks for. *)
let walk st p g h m r =
  let l = log st g h in
  let d = Msg m in
  let blocks = function Msg m' -> rank st p m' < r | _ -> false in
  if not (Log.mem l d) then -1
  else
    match
      if st.cache then Log.first_before_front l ~slot:((3 * p) + r - 2) d blocks
      else Log.first_before l d blocks
    with
    | Some (Msg b) -> b
    | _ -> -1

(* γ(g) as seen at (p, t), per variant. *)
let gamma_groups st p t g =
  match st.variant with
  | Pairwise -> []
  | Vanilla | Strict -> st.mu.Mu.gamma_groups p t g

(* Park a message whose failed guard read a detector at (p, t) until
   the read may change: the end of γ(g)'s validity window, or the next
   tick for a read of 1^{g∩h} (Strict), whose window [Mu] does not
   expose. *)
let retry_at st p t m =
  let until =
    match st.variant with
    | Pairwise -> max_int
    | Vanilla -> st.mu.Mu.gamma_until p t (st.msgs.(m).Amsg.dst)
    | Strict -> t + 1
  in
  if until < max_int then due_push st p until m

(* ------------------------------------------------------------------ *)
(* Actions.                                                            *)
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
      (Topology.group st.topo (dst st m))

(* Whether p has received the announcement of m: trivially true before
   m is listed (every guard then sees m as absent anyway) and for ever
   after the drawn arrival tick. *)
let visible st p t m =
  Channel_fault.is_none st.faults
  || st.lidx.(m) < 0
  || t >= st.visible_at.(p).(m)

(* multicast(m), lines 5–7, sequenced through L_g (Prop. 1): the source
   first publishes m in the shared list. Every other member admits m
   once its copy of the announcement arrives. *)
let try_list st p t m =
  let msg = st.msgs.(m) in
  if msg.Amsg.src = p && t >= st.req_at.(m) && st.lidx.(m) < 0 then begin
    let g = msg.Amsg.dst in
    let i = st.list_len.(g) in
    st.lists.(g).(i) <- m;
    st.list_len.(g) <- i + 1;
    st.lidx.(m) <- i;
    draw_visibility st p t m;
    emit st (fun seq -> Trace.Invoke { m; p; time = t; seq });
    if st.cache then
      Pset.iter
        (fun q ->
          if q = p then wake st p m
          else if Channel_fault.is_none st.faults then admit st q m
          else
            let v = st.visible_at.(q).(m) in
            if v < max_int then due_push st q v m)
        (Topology.group st.topo g);
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
   delivery order, minimality) is preserved; see DESIGN.md.

   The reference stepper scans every older list entry. The wake-set
   stepper reads only m's list predecessor: the sent messages of L_g
   are a prefix of it (every send passes this gate), and so are those
   delivered at p without pipelining (the appender delivered every
   older message, so each is locked below m in LOG_g, and p's deliver
   walk over LOG_g waits for it). *)
let send_ready st p m =
  let g = dst st m in
  let i = st.lidx.(m) in
  let done_ m' =
    if st.pipelining then st.sent.(m') else st.phase.(p).(m') = Trace.Delivered
  in
  if st.cache then i = 0 || done_ st.lists.(g).(i - 1)
  else
    let rec older j = j >= i || (done_ st.lists.(g).(j) && older (j + 1)) in
    older 0

(* The list successor of m, whose send gate m's send (pipelined) or
   delivery at p (otherwise) may have opened. *)
let successor st m =
  let g = dst st m and i = st.lidx.(m) + 1 in
  if i < st.list_len.(g) then st.lists.(g).(i) else -1

let fire_send st p t m =
  let g = dst st m in
  ignore (Log.append (log st g g) (Msg m));
  st.sent.(m) <- true;
  emit st (fun seq -> Trace.Send { m; p; time = t; seq });
  if st.cache then begin
    wake_members st m (fun _ -> true);
    match successor st m with
    | n when n >= 0 && st.pipelining -> wake_members st n (fun _ -> true)
    | _ -> ()
  end

let try_send st p t m =
  st.lidx.(m) >= 0
  && (not st.sent.(m))
  && send_ready st p m
  && begin
       fire_send st p t m;
       true
     end

(* pending(m), lines 8–15: every predecessor of m in LOG_g has
   committed locally. *)
let pending_blocker st p m =
  let g = dst st m in
  walk st p g g m (Trace.phase_rank Trace.Commit)

let fire_pending st p t m =
  let g = dst st m in
  let lg = log st g g in
  List.iter
    (fun h ->
      let i = Log.append (log st g h) (Msg m) in
      ignore (Log.append lg (Pend (m, h, i)));
      if not (List.mem h st.pend_hs.(m)) then
        st.pend_hs.(m) <- h :: st.pend_hs.(m);
      if i > st.pend_k.(m) then st.pend_k.(m) <- i)
    st.groups_of.(p);
  set_phase st p m Trace.Pending t;
  if st.cache then
    wake_members st m (fun q -> st.phase.(q).(m) = Trace.Pending)

let try_pending st p t m =
  st.phase.(p).(m) = Trace.Start
  && st.sent.(m)
  && pending_blocker st p m < 0
  && begin
       fire_pending st p t m;
       true
     end

(* The commit guard of lines 16–24, shared by the scalar and batched
   committers: [`Ready k] when every γ-group has a recorded (m, h, i)
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
   see DESIGN.md).

   [`Later] marks a failure of the γ part, which time alone may lift. *)
let commit_check st p t m =
  let g = dst st m in
  let covered h = List.mem h st.pend_hs.(m) in
  if not (List.for_all covered (gamma_groups st p t g)) then `Later
  else if st.pipelining && not (List.for_all covered st.cover.(g)) then `No
  else `Ready st.pend_k.(m)

(* Bump-and-lock m at the decided slot in every (g, h) log of p — the
   repositioning that wakes every walk m blocks. *)
let fire_commit st p t m k =
  let g = dst st m in
  List.iter
    (fun h -> Log.bump_and_lock (log st g h) (Msg m) k)
    st.groups_of.(p);
  set_phase st p m Trace.Commit t;
  if st.cache then
    Pset.iter (fun q -> wake_waiters st q m max_int) (Topology.group st.topo g)

(* commit(m), lines 16–24: one consensus round for m alone. *)
let commit_one st p t m k =
  let fam_key = List.assoc (dst st m) st.h_key.(p) in
  st.rounds <- st.rounds + 1;
  fire_commit st p t m (Consensus_table.propose st.cons (m, fam_key) k)

let try_commit st p t m =
  st.phase.(p).(m) = Trace.Pending
  &&
  match commit_check st p t m with
  | `Later | `No -> false
  | `Ready k ->
      commit_one st p t m k;
      true

(* Batched commit (lines 16–24, amortized): the γ-ready Pending
   messages of one destination group (in id order, [round]) run ONE
   consensus round. Every member proposes the same decided position kd
   — the max of the members' observed positions — so the fresh
   messages of a round land at one log position and the a-priori
   [compare_datum] fixes the in-batch delivery order, exactly the
   Multi-Paxos batching trade. Consensus keys stay per-message, so
   agreement with concurrent scalar or foreign rounds is unchanged;
   only the invocation count ([rounds]) is amortized. *)
let commit_round st p t g round =
  match round with
  | [] -> false
  | members ->
      let kd = List.fold_left (fun acc (_, k) -> max acc k) 0 members in
      let fam_key = List.assoc g st.h_key.(p) in
      st.rounds <- st.rounds + 1;
      List.iter
        (fun (m, _) ->
          fire_commit st p t m (Consensus_table.propose st.cons (m, fam_key) kd))
        members;
      true

(* stabilize(m, h), lines 25–29.

   Both steppers skip [h = g]: a [Stab (m, g)] tuple has no reader in
   any variant — [stable_ready]'s Vanilla arm ranges over the γ-groups
   (which exclude [g]), Strict short-circuits [h = g], Pairwise never
   reads [Stab] — so writing it only pollutes LOG_g and lengthens every
   later predecessor walk over it. *)
let fire_stabilize st g m h =
  ignore (Log.append (log st g g) (Stab (m, h)));
  st.stab_done.(m).(h) <- true;
  if st.cache then
    wake_members st m (fun q -> st.phase.(q).(m) = Trace.Commit)

let stabilize_blocker st p m h =
  walk st p (dst st m) h m (Trace.phase_rank Trace.Stable)

let try_stabilize st p m h =
  st.phase.(p).(m) = Trace.Commit
  && (not st.stab_done.(m).(h))
  && stabilize_blocker st p m h < 0
  && begin
       fire_stabilize st (dst st m) m h;
       true
     end

(* stable(m), lines 30–33 (variant-dependent precondition, §6.1). *)
let stable_ready st p t m =
  let g = dst st m in
  let has_stab h = st.stab_done.(m).(h) in
  match st.variant with
  | Vanilla -> List.for_all has_stab (gamma_groups st p t g)
  | Pairwise -> true
  | Strict ->
      List.for_all
        (fun h ->
          h = g || not (Topology.intersecting st.topo g h)
          || has_stab h
          || st.mu.Mu.indicator g h p t = Some true)
        (Topology.gids st.topo)

let try_stable st p t m =
  st.phase.(p).(m) = Trace.Commit
  && stable_ready st p t m
  && begin
       set_phase st p m Trace.Stable t;
       true
     end

(* deliver(m), lines 34–37: a conjunction of walks over p's pair logs;
   the first failing log's first blocker falsifies the whole
   conjunction, so it is a sound single witness. *)
let deliver_blocker st p m =
  let g = dst st m in
  let r = Trace.phase_rank Trace.Delivered in
  let rec check = function
    | [] -> -1
    | h :: hs ->
        let b = walk st p g h m r in
        if b >= 0 then b else check hs
  in
  check st.groups_of.(p)

let fire_deliver st p t m =
  set_phase st p m Trace.Delivered t;
  if st.cache && not st.pipelining then
    match successor st m with n when n >= 0 -> wake st p n | _ -> ()

let try_deliver st p t m =
  st.phase.(p).(m) = Trace.Stable
  && deliver_blocker st p m < 0
  && begin
       fire_deliver st p t m;
       true
     end

(* ------------------------------------------------------------------ *)
(* The reference stepper: a full scan of every visible message.       *)
(* ------------------------------------------------------------------ *)

(* One batched cascade pass: attempt every action kind over every
   candidate in the scalar stepper's priority order, executing ALL
   enabled actions instead of the first. Stabilize drains every (m, h)
   pair; commit runs one consensus round per group. *)
let ref_pass st p t candidates =
  let any = ref false in
  let run f = List.iter (fun m -> if f m then any := true) candidates in
  run (try_deliver st p t);
  run (try_stable st p t);
  run (fun m ->
      let g = dst st m in
      List.fold_left
        (fun fired h -> (h <> g && try_stabilize st p m h) || fired)
        false st.groups_of.(p));
  List.iter
    (fun g ->
      let round =
        List.filter_map
          (fun m ->
            if dst st m = g && st.phase.(p).(m) = Trace.Pending then
              match commit_check st p t m with
              | `Ready k -> Some (m, k)
              | `Later | `No -> None
            else None)
          candidates
      in
      if commit_round st p t g round then any := true)
    st.groups_of.(p);
  run (try_pending st p t);
  run (try_send st p t);
  run (try_list st p t);
  !any

(* A batched step: passes until one fires nothing. *)
let drain pass =
  pass ()
  && begin
       while pass () do
         ()
       done;
       true
     end

let ref_step st p t =
  (* The visibility gate is part of the semantics: with
     [Channel_fault.none] it passes everything through untouched. *)
  let base =
    if Channel_fault.is_none st.faults then st.relevant.(p)
    else List.filter (fun m -> visible st p t m) st.relevant.(p)
  in
  if st.batching then drain (fun () -> ref_pass st p t base)
  else
    let try_each f = List.exists f base in
    try_each (try_deliver st p t)
    || try_each (try_stable st p t)
    || try_each (fun m ->
           let g = dst st m in
           st.phase.(p).(m) = Trace.Commit
           && List.exists
                (fun h ->
                  h <> g
                  && Pset.mem p (Topology.inter st.topo g h)
                  && try_stabilize st p m h)
                st.groups_of.(p))
    || try_each (try_commit st p t)
    || try_each (try_pending st p t)
    || try_each (try_send st p t)
    || try_each (try_list st p t)

(* ------------------------------------------------------------------ *)
(* The wake-set stepper.                                               *)
(* ------------------------------------------------------------------ *)

(* Each sweep visits the woken set of one class in id order — the
   order of the reference scan, which skips every other message only
   because its guard is false — and parks a message once every guard
   it is eligible for has failed, registering what they read. *)

let fast_deliver st p t m =
  match deliver_blocker st p m with
  | -1 ->
      fire_deliver st p t m;
      true
  | b ->
      park st p m;
      wait_on st p b m (Trace.phase_rank Trace.Delivered);
      false

let fast_stable st p t m =
  stable_ready st p t m
  && begin
       set_phase st p m Trace.Stable t;
       true
     end

(* The stabilize sweep of a Commit-phase m: fire the first (scalar) or
   every (batched) unblocked h ≠ g. With none fired, m parks unless
   [stable] now holds; it waits on each blocker, on its [Stab] tuples
   (woken by [fire_stabilize]) and until the detector [stable] read may
   change ([retry_at]). *)
let fast_stabilize st p t m =
  let g = dst st m in
  let r = Trace.phase_rank Trace.Stable in
  let fresh = cls st p m land retimed = 0 in
  let fired =
    List.fold_left
      (fun fired h ->
        if (fired && not st.batching) || h = g || st.stab_done.(m).(h) then fired
        else
          match stabilize_blocker st p m h with
          | -1 ->
              fire_stabilize st g m h;
              true
          | b ->
              if fresh then wait_on st p b m r;
              fired)
      false st.groups_of.(p)
  in
  if not (fired || stable_ready st p t m) then begin
    park st p m;
    retry_at st p t m
  end;
  fired

(* A failed commit guard parks m on its pend tuples (woken by
   [fire_pending]) and, when γ failed, until γ may change. *)
let commit_failed st p t m r =
  park st p m;
  if r = `Later then retry_at st p t m

let fast_commit st p t m =
  match commit_check st p t m with
  | `Ready k ->
      commit_one st p t m k;
      true
  | (`Later | `No) as r ->
      commit_failed st p t m r;
      false

(* The batched commit candidates of group g, in id order. *)
let fast_round st p t g =
  let round = ref [] and m = ref (next_woken st p c_commit 0) in
  while !m >= 0 do
    (if dst st !m = g then
       match commit_check st p t !m with
       | `Ready k -> round := (!m, k) :: !round
       | (`Later | `No) as r -> commit_failed st p t !m r);
    m := next_woken st p c_commit (!m + 1)
  done;
  List.rev !round

let fast_pending st p t m =
  match pending_blocker st p m with
  | -1 ->
      fire_pending st p t m;
      true
  | b ->
      park st p m;
      wait_on st p b m (Trace.phase_rank Trace.Commit);
      false

(* A failed send gate needs no registration: the send (pipelined) or
   local delivery of m's list predecessor wakes exactly m. *)
let fast_send st p t m =
  if send_ready st p m then begin
    fire_send st p t m;
    true
  end
  else begin
    park st p m;
    false
  end

let fast_list st p t m =
  try_list st p t m
  || begin
       park st p m;
       false
     end

let fast_pass st p t =
  let sweep c f any = sweep_woken st p t c f 0 any in
  let any = sweep c_deliver fast_deliver false in
  let any = sweep c_stable fast_stable any in
  let any = sweep c_stable fast_stabilize any in
  let any =
    List.fold_left
      (fun any g -> commit_round st p t g (fast_round st p t g) || any)
      any st.groups_of.(p)
  in
  let any = sweep c_pending fast_pending any in
  let any = sweep c_send fast_send any in
  sweep c_list fast_list any

let fast_step st p t =
  pop_due st p t;
  woken st p
  &&
  if st.batching then drain (fun () -> fast_pass st p t)
  else
    let first c f = find_woken st p t c f 0 in
    first c_deliver fast_deliver
    || first c_stable fast_stable
    || first c_stable fast_stabilize
    || first c_commit fast_commit
    || first c_pending fast_pending
    || first c_send fast_send
    || first c_list fast_list

let enabled st ~pid:p ~time:t =
  (not st.cache)
  || begin
       pop_due st p t;
       woken st p
     end

let step st ~pid:p ~time:t =
  if st.cache then fast_step st p t else ref_step st p t

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
    | Some l -> Log.snapshot l

let consensus_instances st = Consensus_table.instances st.cons

let listed st ~m = st.lidx.(m) >= 0

let list_snapshot st g =
  List.init st.list_len.(g) (fun i -> st.lists.(g).(st.list_len.(g) - 1 - i))

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
    (* A lowered req_at can turn the source's multicast on: admit m
       there at the new time (a stale heap entry is harmless). *)
    let src = st.msgs.(m).Amsg.src in
    if st.cache && Pset.mem src (Topology.group st.topo (dst st m)) then
      due_push st src time m
  end

let consensus_rounds st = st.rounds

let delivered st ~pid ~m = st.phase.(pid).(m) = Trace.Delivered
let channel_faults st = st.faults
let link_stats st = st.links
let visibility_horizon st = st.vis_horizon
let event_seq st = st.seq

let visibility st ~pid ~m ~time =
  if Channel_fault.is_none st.faults || st.lidx.(m) < 0 then `Visible
  else
    let v = st.visible_at.(pid).(m) in
    if v = max_int then `Lost
    else if time >= v then `Visible
    else `Pending (v - time)
