(** The paper's log object (§4.3).

    A log is an infinite array of slots numbered from 1; a slot may hold
    several data items. [append] inserts at the head (the first free
    slot after which only free slots remain); [bump_and_lock d k] moves
    [d] from its slot [l] to slot [max k l] and locks it there — a
    locked datum can never move again. The induced order [d <_L d']
    compares positions, breaking ties with an a-priori total order on
    data.

    This is the linearizable, wait-free specification object; the
    simulator executes each operation atomically, which realises
    linearizability by construction. A message-passing implementation
    from the claimed failure detectors lives in [Amcast_substrate]. *)

type 'a t

val create : compare:('a -> 'a -> int) -> 'a t
(** [compare] is the a-priori total order used for slot-sharing ties.
    It must be a {e total} order: distinct data never compare equal
    (the incremental sorted index identifies data through it). *)

val copy : 'a t -> 'a t
(** An independent log with the same entries, positions and locks:
    mutating either one never changes the other. The cached
    {!snapshot} is shared, so until the copy is mutated its snapshot is
    physically the original's. *)

val append : 'a t -> 'a -> int
(** Insert at the head slot and return the datum's position. Does
    nothing (returns the current position) if already present. *)

val mem : 'a t -> 'a -> bool

val pos : 'a t -> 'a -> int
(** Current slot of the datum; [0] if absent. *)

val bump_and_lock : 'a t -> 'a -> int -> unit
(** Move the datum to [max k current] and lock it. No effect on an
    already-locked datum. Raises [Invalid_argument] if absent. *)

val locked : 'a t -> 'a -> bool

val head : 'a t -> int
(** The first free slot after which only free slots remain. *)

val lt : 'a t -> 'a -> 'a -> bool
(** [lt log d d']: the order [d <_L d'] (both data must be present). *)

val entries : 'a t -> 'a list
(** All data in log order (increasing [<_L]). The ascending index is
    maintained incrementally: [append] pushes at its end, and only a
    position-raising [bump_and_lock] moves an entry. *)

val snapshot : 'a t -> ('a * int * bool) list
(** Every datum with its position and lock status, in log order. Cached:
    only a fresh [append] or a [bump_and_lock] that locks changes the
    result, and between two such mutations every call returns the
    physically same list, so callers may compare snapshots with [==]. *)

val before : 'a t -> 'a -> 'a list
(** All data strictly smaller than the given datum (which must be
    present) in the log order. O(predecessors). *)

val fold_before : 'a t -> 'a -> ('b -> 'a -> 'b) -> 'b -> 'b
(** [fold_before log d f init]: fold [f] over the strict predecessors
    of [d] in ascending log order, without materialising a list — the
    allocation-free [before] for hot loops. Raises [Invalid_argument]
    if [d] is absent. *)

val forall_before : 'a t -> 'a -> ('a -> bool) -> bool
(** [forall_before log d check]: does [check] hold on every strict
    predecessor of [d]? Short-circuits at the first failure — the
    early-exit [fold_before] for guards. Raises [Invalid_argument] if
    [d] is absent. *)

val first_before : 'a t -> 'a -> ('a -> bool) -> 'a option
(** [first_before log d pred]: the first (smallest in log order) strict
    predecessor of [d] satisfying [pred], if any. Short-circuits like
    {!forall_before} — the witness-returning variant used to name the
    blocking entry of a failed guard walk. Raises [Invalid_argument] if
    [d] is absent. *)

val first_before_front : 'a t -> slot:int -> 'a -> ('a -> bool) -> 'a option
(** [first_before_front log ~slot d pred]: {!first_before}, walked from
    a frontier the log keeps per caller-chosen [slot] (a small
    non-negative int; slots start at the lowest entry). The walk starts
    at the frontier's slot and leaves the frontier at the slot of the
    entry it returns, or of [d] when it returns [None].

    The caller guarantees, per [slot], that [pred] only ever changes
    from [true] to [false] on an entry, never back. Then no entry below
    the frontier satisfies [pred] (entries only move up the log, and
    appends land at the head), so the result is always {!first_before}'s
    and repeated walks cost O(entries above the frontier). *)

val fold_entries : 'a t -> ('b -> 'a -> 'b) -> 'b -> 'b
(** Fold over all entries in ascending log order (allocation-free
    [entries] for hot loops). *)

val length : 'a t -> int
