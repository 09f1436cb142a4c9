(** Timing constraints: the sparse matrix {m D_C}.

    {m D_C(j_1, j_2)} is the maximum signal-routing delay allowed from
    component {m j_1} to component {m j_2} (paper section 2.1, input
    I.4).  Entries are directed; absent entries read as {m +∞} — the
    paper notes that most of the {m N²} potential constraints involve
    pairs with "no actual electrical connection or cycle time
    constraints between them" and are discarded, so only the critical
    constraints are stored.

    The structure is mutable during construction.  {!add} writes a
    hashtable store; everything that reads the budgets goes through a
    per-component partner index over both incoming and outgoing budgets
    (the flat CSR below), built lazily from that store and dropped by
    the next {!add}. *)

type t

type partner = {
  other : int;       (** the other component *)
  budget_out : float; (** {m D_C(j, other)}; +∞ if unconstrained *)
  budget_in : float;  (** {m D_C(other, j)}; +∞ if unconstrained *)
}

val create : n:int -> t
(** No constraints on [n] components. *)

val n : t -> int

val add : t -> int -> int -> float -> unit
(** [add t j1 j2 budget] constrains the routing delay from [j1] to
    [j2].  If a budget already exists the tighter (smaller) one is
    kept.
    @raise Invalid_argument on self-pairs, out-of-range ids, negative
    or NaN budgets.  Infinite budgets are ignored (no constraint). *)

val add_sym : t -> int -> int -> float -> unit
(** Constrain both directions with the same budget. *)

val budget : t -> int -> int -> float
(** [budget t j1 j2] is {m D_C(j_1,j_2)}, {m +∞} when absent. *)

val mem : t -> int -> int -> bool
(** Is there a finite directed budget from [j1] to [j2]? *)

val count : t -> int
(** Number of finite directed budgets — the paper's Table I "# of
    Timing Constraints" counts these critical constraints.  O(1): kept
    by {!add}. *)

val pair_count : t -> int
(** Number of distinct unordered constrained pairs. *)

val iter : t -> (int -> int -> float -> unit) -> unit
(** [iter t f] calls [f j1 j2 budget] once per finite directed budget,
    ordered by [j1] ascending, then [j2] ascending — the (row, column)
    order of {m D_C}.  Every reader of the budgets (feasibility checks,
    {m yᵀQ̂y}, certification, instance hashes, the text format) sees
    this one sequence.  The walk runs over the flat partner CSR below,
    so it allocates nothing but builds the CSR on first use after an
    {!add}: a loop that alternates {!add} and [iter] on the same [t]
    rebuilds it every time.  No constraints: no CSR is built. *)

val fold : t -> init:'a -> f:('a -> int -> int -> float -> 'a) -> 'a
(** {!iter} as a fold, in the same order. *)

(** {2 Flat partner CSR}

    The per-component partner index is stored struct-of-arrays:
    component [j]'s partners are
    [partner_ids.(partner_offsets.(j) .. partner_offsets.(j+1) - 1)],
    ascending, with both directed budgets in unboxed float arrays.
    The arrays are shared with [t] and must not be mutated; they are
    rebuilt lazily after any {!add}.  Hot loops should grab them once
    and iterate by index. *)

val prebuild : t -> unit
(** Force the lazy partner index.  {!iter}, {!fold}, {!pair_count} and
    every accessor below build it on first use, so call [prebuild] once
    before fanning [t] out read-only across domains; otherwise two
    domains race to build it.  [Qbpart_evolve.Evolve.solve] does this
    before its starts run. *)

val partner_offsets : t -> int array
(** Row offsets, length [n + 1]. *)

val partner_ids : t -> int array
(** Partner ids, per-row ascending. *)

val partner_budget_out : t -> float array
(** {m D_C(j, other)} aligned with {!partner_ids}; {m +∞} if
    unconstrained. *)

val partner_budget_in : t -> float array
(** {m D_C(other, j)} aligned with {!partner_ids}; {m +∞} if
    unconstrained. *)

val partners : t -> int -> partner array
(** All components sharing a constraint with [j], with both directed
    budgets, ascending by id.  Boxed compatibility view over the flat
    CSR; the returned array is shared and must not be mutated, and is
    rebuilt automatically after any {!add}. *)

val partner_degree : t -> int -> int
(** Number of constraint partners of [j]. *)

val max_partner_degree : t -> int
(** Largest number of constraint partners of any component. *)

val copy : t -> t
val empty : t -> bool
val pp : Format.formatter -> t -> unit
