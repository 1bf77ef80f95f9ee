(** Discrete-event execution of guarded-action algorithms.

    Time advances in ticks. At every tick the engine visits the
    scheduled, not-yet-crashed processes in a seeded random order and
    offers each one the chance to execute one action ([step] returns
    whether it did). Crashes follow the failure pattern; a crashed
    process is never scheduled again. Runs are deterministic functions
    of the seed.

    Fairness: with the default schedule every alive process is visited
    at every tick, which realises the fair runs of the paper's model.
    The [scheduled] hook restricts visits to a subset per tick and is
    used for the P-fair runs of §6.2 (group parallelism). *)

type stats = {
  steps : int array;  (** actions executed per process *)
  executed : int;  (** total actions executed *)
  ticks_used : int;  (** ticks elapsed before quiescence/horizon *)
  quiescent : bool;  (** stopped because no action was enabled *)
}

val run :
  fp:Failure_pattern.t ->
  horizon:int ->
  ?quiesce_after:int ->
  ?live_until:(unit -> int) ->
  ?seed:int ->
  ?scheduled:(int -> Pset.t) ->
  ?enabled:(pid:int -> time:int -> bool) ->
  ?steps_per_tick:int ->
  ?on_tick:(int -> unit) ->
  step:(pid:int -> time:int -> bool) ->
  unit ->
  stats
(** [quiesce_after] (default [0]): earliest tick at which the engine
    may stop because a full tick passed with no action executed. Set it
    beyond every crash time and detector delay, since guards can become
    enabled by time alone.

    [live_until] (default [fun () -> 0]): a dynamic lower bound on
    quiescence, re-queried at every silent tick. Fault-injecting
    channels use it to keep the engine running while a delayed or
    retransmitted copy is still in flight — such arrivals enable
    guards by time alone, invisibly to [step]'s return values.

    [enabled] (default: always [true]) is a sound-to-skip hint: when it
    returns [false] the engine does not call [step] for that process at
    that tick. It must return [false] only when no action of [pid] can
    execute, so a skipped call would have returned [false] anyway. The
    per-tick RNG shuffle still covers the full scheduled set, so the
    draw sequence — and hence the run — is unchanged by the hint. *)

val pinned_tick :
  fp:Failure_pattern.t ->
  enabled:(pid:int -> time:int -> bool) ->
  step:(pid:int -> time:int -> bool) ->
  stats ->
  time:int ->
  int option ->
  stats * bool
(** [pinned_tick ~fp ~enabled ~step stats ~time move] runs tick [time]
    with one prescribed move: [Some p] schedules exactly [p], [None]
    nobody. The step fires iff [p] is alive at [time], [enabled] holds and
    [step] returns [true]. Returns the stats after the tick — [stats]
    with [steps.(p)] and [executed] raised by one if the step fired,
    [ticks_used = time + 1], [quiescent = false] — and whether it
    fired; [stats] itself is left untouched. Chaining it from
    [{ steps = all zero; executed = 0; ticks_used = 0; quiescent = false }]
    over ticks [0 .. d-1] is exactly a run of {!run} on horizon [d - 1]
    whose tick [t] schedules only the [t]-th move, quiescence disabled:
    pinned runs are deterministic and independent of any seed. This is
    how the systematic explorer (lib/explore) derives a child state
    from a copy of its parent. *)
