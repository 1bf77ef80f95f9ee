(** The candidate failure detector
    [μ = (∧_{g,h∈G} Σ_{g∩h}) ∧ (∧_{g∈G} Ω_g) ∧ γ] (§3), bundled with the
    strengthenings used by the paper's variations:
    [∧_{g,h} 1^{g∩h}] for strict multicast (§6.1) and
    [∧_{g,h} Ω_{g∩h}] for strongly genuine multicast (§6.2).

    Components are exposed as closures so that experiments can ablate a
    single component (e.g. replace γ with a lying detector) while
    keeping the rest intact. *)

type t = {
  topo : Topology.t;
  families : Topology.family list;  (** the cyclic families [F] *)
  sigma : Topology.gid -> Topology.gid -> int -> Failure_pattern.time -> Pset.t option;
      (** [sigma g h p t]: output of [Σ_{g∩h}] (with [sigma g g] = [Σ_g]). *)
  omega : Topology.gid -> int -> Failure_pattern.time -> int option;
      (** [omega g p t]: output of [Ω_g]. *)
  omega_inter : Topology.gid -> Topology.gid -> int -> Failure_pattern.time -> int option;
      (** [omega_inter g h p t]: output of [Ω_{g∩h}] (§6.2 strengthening). *)
  gamma : int -> Failure_pattern.time -> Topology.family list;
      (** [gamma p t]: families output by γ at [p]. *)
  gamma_groups : int -> Failure_pattern.time -> Topology.gid -> Topology.gid list;
      (** The derived [γ(g)] notation of §3. *)
  gamma_until : int -> Failure_pattern.time -> Topology.gid -> Failure_pattern.time;
      (** [gamma_until p t g]: a tick after [t] up to which
          [gamma_groups p · g] keeps its value at [t] ([max_int]: for
          ever). Exact for the γ of {!make} and the constant ablations,
          [t + 1] for an arbitrary γ. *)
  indicator : Topology.gid -> Topology.gid -> int -> Failure_pattern.time -> bool option;
      (** [indicator g h p t]: output of [1^{g∩h}] (§6.1 strengthening). *)
}

val make :
  ?max_delay:int ->
  ?stabilization:Failure_pattern.time ->
  seed:int ->
  Topology.t ->
  Failure_pattern.t ->
  t
(** Build valid histories of every component for the given topology and
    failure pattern. [stabilization] is the Ω stabilisation time,
    [max_delay] the detection latency bound of γ, [1^P] and P. *)

val with_gamma :
  t ->
  (int -> Failure_pattern.time -> Topology.family list) ->
  t
(** Ablation hook: replace the γ component (both [gamma] and the
    derived [gamma_groups]; [gamma_until] becomes [t + 1]). *)

val gamma_always : t -> t
(** A γ that never excludes any family: accurate but not complete.
    Starves progress when a cyclic family is faulty. *)

val gamma_lying : t -> t
(** A γ that outputs no family at all: complete but wildly inaccurate
    (it declares correct families faulty). Used to witness that
    accuracy of γ is load-bearing for the ordering property. *)
