(** Local descent and feasibility repair on the embedded cost surface.

    Two move classes over {m yᵀQ̂y} (both capacity-preserving):

    - {e coordinate passes} — sequential single-component relocation to
      the cheapest partition with room (Gauss–Seidel descent on
      {!Qmatrix.candidate_costs}); components stranded in an over-full
      partition may escape sideways, which repairs C1 overflows left
      by the relaxed GAP solver;
    - {e pair passes} — for each currently violated timing constraint,
      the best {e joint} relocation of both endpoints is evaluated
      exactly (all {m M²} placements) and applied when it lowers the
      embedded cost.  Pair moves clear the violations that no single
      relocation can, because the two endpoints must move together.

    Under an effectively infinite penalty these passes implement the
    feasibility repair used by the solver's probes; under the regular
    penalty the coordinate pass is the solver's polish step. *)

module Assignment := Qbpart_partition.Assignment

type cache
(** Candidate rows of every component under one {!Qmatrix.t}, and the
    assignment they were priced on (DESIGN.md D16).  Each pass begins
    with an O(n) diff of the caller's assignment against that one: a
    component that moved marks its own row, its wire neighbours' and
    its timing partners' rows stale, and so does every move a pass
    makes.  A stale row is recomputed by {!Qmatrix.candidate_costs_at}
    just before it is read; a row depends on nothing else, so every
    value read equals the from-scratch row bit for bit, and results are
    those of an uncached pass.  Handed a different matrix (physical
    identity), the cache treats every row as stale.  Not safe for
    concurrent use. *)

val cache : m:int -> n:int -> cache
(** Room for [n] rows of length [m], all stale.
    @raise Invalid_argument if [m] or [n] is negative.  The passes
    below raise it when the matrix's {m M×N} differs. *)

val coordinate_pass :
  ?delta:float ref ->
  ?dviol:int ref ->
  cache:cache ->
  Qmatrix.t ->
  Assignment.t ->
  loads:float array ->
  bool
(** One in-place pass over the components in index order, reading
    their rows through [cache].  Returns whether any component moved.
    [loads] is kept in sync.  When [delta]/[dviol] are given, every
    applied move adds its exact penalized-cost change and
    violated-direction-count change to them (the delta-evaluation
    invariant of DESIGN.md D7), letting callers track the running
    objective without full recomputes. *)

val polish : ?cache:cache -> Qmatrix.t -> Assignment.t -> passes:int -> unit
(** Repeated {!coordinate_pass} until fixpoint or budget.  Without
    [cache], a fresh one. *)

val polish_tracked :
  ?cache:cache -> Qmatrix.t -> Assignment.t -> passes:int -> float * int
(** {!polish} that returns [(dcost, dviol)]: the exact change of the
    penalized objective and of the violation count over the whole
    descent, accumulated move-by-move in O(deg) per move.  Lets the
    solver price a polished iterate without re-walking every wire and
    constraint. *)

val pair_pass :
  ?delta:float ref ->
  ?dviol:int ref ->
  Qmatrix.t ->
  Assignment.t ->
  loads:float array ->
  max_pairs:int ->
  bool
(** One pass of joint pair relocation over currently violated
    constraints (at most [max_pairs] of them).  Returns whether any
    pair moved.  It prices trial placements, so it computes its own
    rows; the next cached {!coordinate_pass} picks up its moves in its
    diff.  [delta]/[dviol] as in {!coordinate_pass}; a pair move
    decomposes into two sequential single moves for the violation
    delta. *)

val to_feasible : ?cache:cache -> Qmatrix.t -> Assignment.t -> rounds:int -> bool
(** Alternate {!polish} (through [cache], or a fresh one) and
    {!pair_pass} up to [rounds] times, aiming
    at timing feasibility; returns whether the assignment satisfies
    all timing constraints on exit.  Intended to be called with a
    strict (huge-penalty) matrix.  The violation count is maintained
    incrementally across rounds (one full scan on entry, O(deg) per
    move thereafter). *)
