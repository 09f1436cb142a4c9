(** Fiduccia–Mattheyses-style gain buckets, generalized to M-way moves.

    Both baselines pick, each step, the legal move (GFM) or swap (GKL)
    with the most negative delta — a full {m N×M} (or {m N²}) scan per
    step in the naive implementation.  This module keeps every
    (component, destination-partition) move cell on a doubly-linked
    bucket list keyed by a quantized gain, so selection touches only
    the few lowest buckets of each partition-pair row and updates cost
    {m O(deg·M)} per applied move.

    {2 Cell layout}

    Cell [c = j*M + i] stands for "move component [j] to partition
    [i]".  Cells live in flat [prev]/[next]/[bucket] arrays (no
    records, no boxing); [-1] terminates lists.  Cells with
    [i = a.(j)] and cells of locked components are unlinked.

    Rows group cells by (source, destination) partition pair:
    cell [c] belongs to row [a.(j)*M + i].  GFM selection scans the
    {m M(M-1)} rows' lowest buckets; GKL selection pairs row
    {m (p1→p2)} against row {m (p2→p1)} so a swap candidate's key
    lower-bound is the sum of two bucket bounds plus a precomputed
    direct-wire correction bound.

    {2 Gain scaling and overflow}

    Gains are floats; keys are [floor ((g - g0) / q) + 1] with [g0]/[q]
    fitted to the gain range at the last {!reset}.  Buckets are
    {e coarse filters}, never the comparison itself: selection scans
    every bucket whose lower bound could still contain a winner and
    compares exact deltas (with the scan implementations' exact
    tie-breaking).  Gains drifting outside the fitted range during a
    pass clamp into the end buckets — bucket [0] has lower bound
    [-inf], the top bucket is open above — which degrades those
    buckets to scans but never drops or misorders a candidate. *)

module Netlist := Qbpart_netlist.Netlist
module Topology := Qbpart_topology.Topology

type t

val create : ?nbuckets:int -> Netlist.t -> Topology.t -> Gains.t -> t
(** Wrap a gains table.  [nbuckets] (default 128, clamped to at least
    8) trades memory ({m M²·nbuckets} ints) against quantization
    collisions.  The structure starts linked, as after {!reset}. *)

val gains : t -> Gains.t
(** The wrapped table (shared, not a copy). *)

val reset : t -> unit
(** Start-of-pass: unlock everything, refit the gain scale to the
    current gain range, relink every cell.  {m O(N·M + M²·nbuckets)}. *)

val lock : t -> int -> unit
(** Lock a component for the rest of the pass: its cells are unlinked
    and it stops appearing in selections until {!reset}. *)

val is_locked : t -> int -> bool

val apply_move : t -> j:int -> target:int -> unit
(** [Gains.apply_move] plus relinking of the mover's and its
    neighbors' cells.  {m O(deg·M)}. *)

val apply_swap : t -> j1:int -> j2:int -> unit
(** Exchange two components' partitions (two moves). *)

val best_move : t -> legal:(j:int -> target:int -> bool) -> (int * int * float) option
(** [best_move t ~legal] is [Some (j, i, delta)] for the legal move
    minimizing [(delta, j, i)] lexicographically over unlocked
    components — exactly the move the GFM row scan selects, including
    ties.  [legal] is called lazily, only on candidates that beat the
    incumbent; it must be pure.  [None] when no linked cell is
    legal. *)

val best_swap : t -> legal:(j1:int -> j2:int -> bool) -> (int * int * float) option
(** [best_swap t ~legal] is [Some (j1, j2, delta)] ([j1 < j2]) for the
    cross-partition swap minimizing [(delta, j1, j2)]
    lexicographically among pairs that fit capacity
    ({!Gains.swap_fits}) and satisfy [legal] — exactly the pair the GKL
    pair scan selects.  Capacity is part of the contract, tested on
    every pair before its delta is priced, so [legal] is only the extra
    predicate (GKL's timing check); like {!best_move}'s it is called
    lazily, on fitting candidates that beat the incumbent, and must be
    pure.  Pruned by bucket key sums plus a precomputed lower bound on
    the direct-wire correction term. *)
