(** Table 2 of the paper: the base invariants of Algorithm 1, checked
    over the per-tick log snapshots and the event trace of a run.

    The temporal claims (2–8) are verified over every pair of
    consecutive snapshots (they are inductive, so consecutive pairs
    suffice), and on each pair walk only the logs whose entry lists
    changed: an unchanged log passes all seven. One merge over the two
    snapshots' ascending keys finds them, testing [==] before structural
    equality, so a recorded run costs what its steps changed. Outcomes
    with keys out of order or a datum listed twice in one log fall back
    to walking every log; verdicts and failure strings are those of
    [Claims_ref] either way. The remaining claims (9–15) are verified on
    the trace and the final state. Run the outcome with
    [~record_snapshots:true]. *)

type verdict = (unit, string) result

val claim2 : Runner.outcome -> verdict
(** Data never leave a log. *)

val claim3 : Runner.outcome -> verdict
(** Positions never decrease. *)

val claim4 : Runner.outcome -> verdict
(** Locks are permanent. *)

val claim5 : Runner.outcome -> verdict
(** A locked datum's position is frozen. *)

val claim6 : Runner.outcome -> verdict
(** Order below a locked datum is stable: if [d] is locked and
    [d <_L d'], this persists. *)

val claim7 : Runner.outcome -> verdict
(** A datum appended after [d'] was locked sits above [d']. *)

val claim8 : Runner.outcome -> verdict
(** A locked datum acquires no new predecessors. *)

val claim9 : Runner.outcome -> verdict
(** Messages with intersecting destinations that are both delivered
    are [↦]-related. *)

val claim10 : Runner.outcome -> verdict
(** A message in [LOG_{g∩h}] is addressed to [g] or to [h]. *)

val claim11 : Runner.outcome -> verdict
(** Two messages ordered by a log both address the log's groups. *)

val claim12 : Runner.outcome -> verdict
(** Deliveries only happen at destination members. *)

val claim13 : Runner.outcome -> verdict
(** A delivered message is in the log of its destination group. *)

val claim14 : Runner.outcome -> verdict
(** A delivered message went through pending, commit and stable. *)

val claim15 : Runner.outcome -> verdict
(** Phases only increase. *)

val all : Runner.outcome -> (string * verdict) list
