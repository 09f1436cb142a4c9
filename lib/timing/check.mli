(** Timing-constraint checking: the paper's C2.

    An assignment {m A} satisfies C2 iff
    {m D(A(j_1), A(j_2)) ≤ D_C(j_1, j_2)} for every stored budget.
    Assignments are plain [int array]s mapping component id to
    partition index (the same representation used throughout the
    repository). *)

type violation = {
  j1 : int;
  j2 : int;
  delay : float;  (** {m D(A(j_1), A(j_2))} *)
  budget : float; (** {m D_C(j_1, j_2)} *)
}

val violations :
  Constraints.t -> Qbpart_topology.Topology.t -> assignment:int array -> violation list
(** All violated directed constraints, in iteration order. *)

val count :
  Constraints.t -> Qbpart_topology.Topology.t -> assignment:int array -> int
(** Number of violated directed constraints (cheaper than building the
    list). *)

val feasible :
  Constraints.t -> Qbpart_topology.Topology.t -> assignment:int array -> bool

val worst_slack :
  Constraints.t -> Qbpart_topology.Topology.t -> assignment:int array -> float
(** {m min (D_C - D)} over stored constraints; {m +∞} when there are
    none.  Negative iff infeasible. *)

val placement_ok :
  Constraints.t ->
  Qbpart_topology.Topology.t ->
  j:int ->
  at:int ->
  where:(int -> int option) ->
  bool
(** [placement_ok c topo ~j ~at ~where] checks every constraint
    involving [j] against placing [j] at partition [at], where
    [where j'] gives the partition of partner [j'] ([None] = not yet
    placed, constraint ignored).  This is the move-legality primitive
    of the GFM/GKL baselines ("moves are allowed to take place only
    when they do not introduce timing violations"). *)

val swap_checker :
  Constraints.t ->
  Qbpart_topology.Topology.t ->
  assignment:int array ->
  j1:int ->
  j2:int ->
  bool
(** [swap_checker c topo ~assignment] is the timing-legality test of
    exchanging the partitions of two components, [j1] and [j2], read
    against the live [assignment] array: each end is checked, as by
    {!placement_ok}, at the other's partition with the other end
    already relocated and every further partner where [assignment]
    has it.  Components with ids at or past [Constraints.n c] carry no
    constraints (the GKL baseline's padding dummies).

    The partner CSR and a copy of the delay matrix are fetched once,
    when the checker is built, so a check allocates nothing: this is
    the GKL swap selection's per-candidate test.  Adding constraints
    to [c] afterwards is not seen by the checker. *)
