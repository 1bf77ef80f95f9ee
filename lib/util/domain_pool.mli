(** A fixed pool of worker domains over an indexed work list.

    The pool runs [f 0 .. f (n-1)] on [jobs] worker domains pulling
    chunks of indices from a shared queue, and collects the results in
    index order, so callers observe exactly the sequential semantics:
    the output of {!map} is the array a sequential loop would build,
    and {!find_first} returns the match a sequential scan would return
    first. A worker exception is captured with its backtrace and
    re-raised in the calling domain — when several indices raise, the
    earliest index wins, again matching a sequential scan.

    When [jobs <= 1], or only one index is requested, the pool degrades
    to a plain in-process loop: no domain is spawned, which keeps the
    module usable from contexts that must not multiplex (and makes
    [jobs = 1] the bit-identical reference for the parallel paths). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool size to use when
    the caller has no better information (CLI [--jobs] default). *)

val map : ?jobs:int -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] is [[| f 0; …; f (n-1) |]].

    [f] must be safe to call from several domains at once (the
    simulator's runs are: all state is per-run). [jobs] is clamped to
    [1 .. n]; [chunk] (default: computed from [n] and [jobs]) is the
    number of consecutive indices a worker claims per queue round-trip.
    If some [f i] raises, the exception of the smallest such [i] is
    re-raised with its original backtrace after the pool drains. *)

val find_first : ?jobs:int -> ?chunk:int -> int -> (int -> 'b option) -> (int * 'b) option
(** [find_first ~jobs n f] is [Some (i, v)] for the smallest [i] with
    [f i = Some v], or [None] — exactly what a sequential
    [0 .. n-1] scan returns, independent of [jobs].

    Cancellation: once a match at index [i] is known, pending indices
    [> i] are never claimed and in-flight results at indices [> i] are
    discarded. An exception raised at index [e] is re-raised only when
    no match exists at an index [< e] (the sequential scan would have
    stopped before reaching [e] otherwise). *)

(** {1 Persistent pools}

    A per-call {!map} spawns and joins its worker domains every time —
    fine for one large batch, wasteful for callers that issue many
    small batches (bench iterations, repeated [Shard.run] calls). A
    {!pool} keeps [jobs - 1] worker domains alive across batches; they
    block on a condition variable between submissions, so an idle pool
    consumes no CPU. *)

type pool
(** A fixed set of live worker domains plus the submitting domain. *)

val create : jobs:int -> pool
(** Spawn a pool of [jobs] workers (clamped to [1 .. 64]; the
    submitting domain counts as one of them, so [jobs - 1] domains are
    spawned). Must be released with {!shutdown}. *)

val shutdown : pool -> unit
(** Stop and join every worker. Idempotent; using the pool afterwards
    raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (pool -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool (default
    {!default_jobs}) and shuts it down afterwards, also on exceptions. *)

val pool_jobs : pool -> int
(** The (clamped) worker count the pool was created with. *)

val run : pool -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** Exactly {!map} — same sequential semantics, chunking and
    earliest-index exception contract — but executed on the pool's
    live workers instead of freshly spawned domains. [jobs] is the
    pool's size, further clamped by the batch size; with a pool of one
    (or a batch of one) no other domain participates and the batch
    runs as a plain in-process loop. Batches are serialized: [run] must
    not be called concurrently from several domains on one pool. *)
