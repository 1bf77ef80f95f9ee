(** Algorithm 1 of the paper: genuine (group-sequential) atomic
    multicast from the candidate failure detector μ, together with the
    reduction of Proposition 1 that turns it into vanilla atomic
    multicast, and the variations of §6 and §7.

    The protocol is the paper's pseudo-code, action for action:
    - [multicast]: the source appends the message to [LOG_g] (line 7),
      sequenced through the shared per-group list of the Prop. 1
      reduction (with helping);
    - [pending] (lines 8–15): record the message's position in every
      intersection log;
    - [commit] (lines 16–24): agree through [CONS_{m,f}] on the highest
      position and bump-and-lock the message there;
    - [stabilize] (lines 25–29) and [stable] (lines 30–33): wait until
      the message's predecessors cannot change;
    - [deliver] (lines 34–37): deliver in log order.

    Shared objects are the linearizable specification objects of
    [Amcast_objects]; every effect runs atomically under the engine. *)

type variant =
  | Vanilla  (** Algorithm 1 as published (global total order). *)
  | Strict
      (** §6.1: the [stable] precondition waits, for every intersecting
          group [h], for the tuple [(m, h)] or for [1^{g∩h}] = true. *)
  | Pairwise
      (** §7: the γ component is ignored ([γ(g) = ∅], consensus keyed
          per message only) — computably the [F = ∅] regime; only
          pairwise ordering is guaranteed. *)

type datum =
  | Msg of int  (** a message, by id *)
  | Pend of int * Topology.gid * int  (** the tuple [(m, h, i)] of line 14 *)
  | Stab of int * Topology.gid  (** the tuple [(m, h)] of line 29 *)

type t

val create :
  ?variant:variant ->
  ?enablement_cache:bool ->
  ?batching:bool ->
  ?pipelining:bool ->
  ?faults:Channel_fault.spec ->
  ?fault_seed:int ->
  topo:Topology.t ->
  mu:Mu.t ->
  workload:Workload.t ->
  unit ->
  t
(** Workload message ids must be [0 .. K-1].

    [batching] (default [false]) turns on the heavy-traffic drain
    stepper: a [step] executes {e every} enabled action of the process
    (cascade passes to a fixpoint) instead of the first one, and
    commits whole per-group rounds — every γ-ready Pending message of
    a group decides one shared log position in a single consensus
    round, the a-priori {!compare_datum} ordering the batch (the
    Multi-Paxos batching trade). [pipelining] (default [false]) relaxes
    the [A.multicast] gate: a listed message is appended to [LOG_g]
    once its predecessors in [L_g] are merely {e sent} (in [LOG_g])
    rather than locally delivered, so consensus on slot k+1 overlaps
    the delivery of slot k. Both modes preserve the vanilla
    atomic-multicast spec (checked by [Properties.core]); pipelining
    gives up the per-message §4.1 group-sequentiality of the reduction
    — see DESIGN.md "Batching, pipelining & group sharding".

    [faults] (default {!Channel_fault.none}) injects channel faults
    into the one genuine inter-process communication of the Prop. 1
    reduction: the multicast announcement. At listing time each group
    member [q] draws the fate of its copy from a stream keyed by
    [(fault_seed, m, q)] — a pure function of the scenario, never of
    the schedule — and may only act on [m] once its copy has arrived;
    a copy lost for good (impossible with [stubborn]) hides [m] from
    [q] forever. With [Channel_fault.none] no draw is made and the
    stepper is bit-identical to the fault-free one.

    [enablement_cache] (default [true]) turns on the hot-path skip
    index: per-(process, message) failure cursors invalidated by
    version counters on log/list/phase mutations, so [step] skips
    messages whose guards cannot have changed since they last failed.
    The cache only prunes provably-disabled candidates, so traces are
    bit-identical either way; [false] recovers the reference stepper
    (used by the trace-identity tests). *)

val step : t -> pid:int -> time:int -> bool
(** Execute at most one enabled action of process [pid] (with
    [batching], every enabled action, drained to a fixpoint); returns
    whether one was executed. Feed this to [Engine.run]. *)

val enabled : t -> pid:int -> time:int -> bool
(** Conservative enablement hint for [Engine.run]: [false] only when
    the cache proves no action of [pid] can execute at [time] (always
    [true] with the cache off). Sound to use as the engine's
    [?enabled] filter: skipping such a process cannot change the run. *)

val trace : t -> Trace.t
(** Events recorded so far, in execution order. *)

val event_seq : t -> int
(** Number of events recorded so far — the sequence number the next
    event will get. Monotone; [trace] holds exactly this many events. *)

val phase : t -> pid:int -> m:int -> Trace.phase

val log_keys : t -> (Topology.gid * Topology.gid) list
(** The logs of the run: normalised pairs [(g, h)], [g ≤ h] (with
    [(g, g)] standing for [LOG_g]). *)

val log_snapshot : t -> (Topology.gid * Topology.gid) -> (datum * int * bool) list
(** Entries of a log with position and lock status, in log order. *)

val consensus_instances : t -> int
(** Number of [CONS_{m,f}] instances actually decided. *)

val consensus_rounds : t -> int
(** Number of commit rounds run so far — the consensus invocations a
    message-passing deployment would make. Without batching this equals
    the number of proposals issued; with batching a whole per-group round
    of messages counts once, so [rounds / instances] measures the
    amortization. *)

val listed : t -> m:int -> bool
(** Whether the Prop. 1 [multicast] of message [m] has been invoked
    (i.e. [m] entered the shared per-group list). *)

val list_snapshot : t -> Topology.gid -> int list
(** Contents of the shared list [L_g], newest first. *)

val consensus_decisions : t -> ((int * Topology.gid list) * int) list
(** Every decided [CONS_{m,f}] instance with its decided position, in a
    canonical (message, family-key) order — part of the protocol state
    the systematic explorer fingerprints. *)

val pp_datum : Format.formatter -> datum -> unit

val compare_datum : datum -> datum -> int
(** The a-priori total order used to tie-break equal log positions
    (constructor rank, then fields lexicographically). *)

val release : t -> m:int -> time:int -> unit
(** Allow the source of message [m] to invoke [multicast m] from [time]
    on. Used by the necessity constructions (Algorithms 2–4), whose
    probe messages are multicast in reaction to deliveries; such
    messages are created with invocation time {!Workload.never} and
    released here. No effect if the message was already released. *)

val delivered : t -> pid:int -> m:int -> bool

val channel_faults : t -> Channel_fault.spec
(** The fault spec the run was created with. *)

val link_stats : t -> Channel_fault.stats
(** Cumulative fate of every announcement copy drawn so far. *)

val visibility_horizon : t -> int
(** Largest finite announcement-arrival tick drawn so far ([0] with no
    faults): pass as the engine's [live_until] so a silent tick with a
    copy still in flight does not quiesce the run. *)

val visibility : t -> pid:int -> m:int -> time:int -> [ `Visible | `Pending of int | `Lost ]
(** Whether [pid] has received the announcement of [m] at [time]:
    [`Pending d] means the copy arrives in [d] more ticks, [`Lost]
    that it never will. Part of the state the explorer fingerprints
    when faults are active. *)

