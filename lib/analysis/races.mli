(** Static parallel-race / loop-carried-dependence detection.

    For every map scope, checks whether the write subset of one parameter
    valuation can overlap the read or write subset of a {e distinct}
    valuation. The second valuation uses fresh primed copies of the map
    parameters ([i] vs [i']); distinctness is the {!Symbolic.Cond.any_ne}
    constraint [i ≠ i' ∨ …], enforced on every sampled valuation pair. A
    symbolic disjointness proof ({!Symbolic.Subset.definitely_disjoint} on
    the primed subsets) short-circuits provably safe pairs; the rest are
    checked on concretized boundary/adjacent/transposed valuation pairs
    under the context's symbol assumptions.

    Sequential map scopes execute in iteration order, so a loop-carried
    dependence is well-defined semantics, not a bug — Gauss–Seidel or
    Floyd–Warshall are built on exactly that. By default sequential scopes
    therefore only report duplicated iteration tuples (the off-by-one
    tiling signature, an error when the scope accumulates through conflict
    resolution). With [~carried:true] cross-valuation write/read overlaps
    in sequential scopes are reported as warnings too — minus those where
    the reading iteration first overwrites the data itself
    (iteration-private buffer reuse). The delta verifier enables this: a
    {e newly introduced} carried dependence is a transformation bug even
    though a pre-existing one is intended behavior. Parallel and GPU
    scopes report every cross-valuation overlap (except commutative
    WCR/WCR pairs) as an error.

    Since the exact dependence tier ({!Deps}), every relevant access pair is
    first handed to the Fourier–Motzkin engine: a [Disjoint] proof settles the
    pair without sampling, an [Overlap] witness is reported directly (with the
    solver's valuation in the finding's [dep_witness] metadata, ready to seed a
    directed fuzz probe), and only [Unknown] pairs fall back to the sampled
    valuation search. Per-scope decided/sampled counters ride on every race
    finding's metadata and aggregate into {!stats}. *)

open Sdfg

(** Exact-tier coverage counters. [pairs] relevant access pairs were examined:
    [exact_disjoint] proved disjoint (structural short-circuit or
    Fourier–Motzkin), [exact_overlap] decided racy with a verified witness,
    [sampled] fell back to the sampled valuation search. *)
type stats = { pairs : int; exact_disjoint : int; exact_overlap : int; sampled : int }

val stats_zero : stats
val stats_add : stats -> stats -> stats

(** The metadata entries ([dep_pairs], [dep_decided], [dep_sampled]) attached
    to every race finding of a scope. *)
val stats_meta : stats -> (string * string) list

(** Recover the exact-tier witness valuation (parameters and primed
    parameters) from a race finding's [dep_witness] metadata. *)
val witness_of_finding : Report.finding -> (string * int) list option

(** [exact] (default [true]) controls the exact dependence tier; disabling it
    restores the pure sampled behavior (used by benchmarks and consistency
    tests). With [memo], the tier's {!Deps.overlap} queries are answered
    from its table when asked before; findings and counters do not depend
    on it. *)
val check_state_stats :
  ?carried:bool ->
  ?exact:bool ->
  ?memo:Deps.memo ->
  Context.t ->
  Graph.t ->
  int ->
  State.t ->
  Report.finding list * stats

val check_state :
  ?carried:bool -> Context.t -> Graph.t -> int -> State.t -> Report.finding list

val check_stats :
  ?carried:bool ->
  ?exact:bool ->
  ?symbols:(string * int) list ->
  Graph.t ->
  Report.finding list * stats

val check : ?carried:bool -> ?symbols:(string * int) list -> Graph.t -> Report.finding list
