(** Exact affine dependence queries over memlet subsets.

    This is the bridge between the {!Symbolic.Linsys} decision core and the
    analyses: it lowers subset membership ([e ∈ \[lo:hi:step\]]), complement
    membership (below the start, past the end, or off the stride residue),
    parameter iteration domains and pairwise distinctness ([ρ ≠ ρ']) into
    conjunctions of integer linear constraints, solves every disjunctive case,
    and reassembles three-valued verdicts:

    - {b Disjoint} — proof: no admissible valuation makes the two regions
      share an element (every case is [Unsat]);
    - {b Overlap w} — a concrete, solver-verified valuation of the scope
      parameters (and their primed copies) exhibiting a shared element, ready
      to seed the fuzzer as a directed probe;
    - {b Unknown} — a case hit a fuel cap, a non-affine term, or a witness
      that could not be trusted; callers fall back to the sampled tier.

    Free program symbols that the caller's environment does not pin are
    universally quantified on the [Disjoint] side (their interval facts, when
    available, enter as extra constraints), and conservatively poison the
    [Overlap] side: a witness is only reported when every variable it binds is
    a scope parameter, so no spurious race can be reported for an unreachable
    ambient value. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset

type verdict =
  | Disjoint
  | Overlap of (string * int) list
      (** valuation of parameters and primed parameters at a shared element *)
  | Unknown

(** A bounded table of query answers. Every query function below takes
    [?memo] and, given one, answers a query it has answered before from the
    table. The key is exactly what an answer depends on:
    - the query and the two subsets;
    - for [overlap], the concrete parameter ranges and the primed names, and
      for each free symbol of the subsets its [env] value, or its interval
      bounds when [env] leaves it free ([env] is substituted before
      solving, so a pinned symbol's bounds never reach the solver);
    - for [uncovered] and [difference_witness], the whole pinned valuation,
      since their witnesses echo every symbol of it, and the interval
      bounds of each free symbol of the subsets (their pins are added to
      the bounds, not substituted);
    - for [equal_sets] and [disjoint_under], the interval bounds of each
      free symbol of the subsets.

    A binding or bound of a symbol free in neither subset takes no part
    in [overlap], [equal_sets] or [disjoint_under], so the same query asked
    under another program, state or context hits. Answers never depend on
    the table, only their cost does. It holds at most a constant number of
    entries per answer type ({!Sdfg.Memo}) and lives as long as the value
    that holds it; {!Reuse} keeps one next to the static delta's other
    tables. *)
type memo

val create_memo : unit -> memo

(** [(hits, misses)] since creation; a miss computes the answer. *)
val memo_stats : memo -> int * int

(** [overlap ~env ~bounds ~params ~primed write access] decides whether the
    write region [write] (over parameter names) and the region [access] (over
    the primed names) can share an element at two {e distinct} parameter
    valuations drawn from the concrete ranges [params]. [env] pins ambient
    program symbols and is substituted into both subsets first; [bounds]
    supplies interval facts for symbols [env] leaves free. [primed] maps each
    parameter to its primed copy; both ends of each pair range over the same
    concrete domain. *)
val overlap :
  ?memo:memo ->
  env:int Expr.Env.t ->
  bounds:(string -> int option * int option) ->
  params:(string * Subset.crange) list ->
  primed:(string * string) list ->
  Subset.t ->
  Subset.t ->
  verdict

(** [equal_sets ~bounds a b] proves that [a] and [b] denote the same element
    set for {e every} symbol valuation admitted by [bounds] (both difference
    directions are [Unsat]). [false] means "could not prove", never "proved
    different". *)
val equal_sets :
  ?memo:memo -> bounds:(string -> int option * int option) -> Subset.t -> Subset.t -> bool

(** [difference_witness ~bounds ~symbols a b] searches for a verified point in
    the symmetric difference of [a] and [b]: a valuation of the declared
    [symbols] together with the differing element. Every symbol in [symbols]
    that occurs free in [a] or [b] is {e pinned} to its given value, so the
    witness is always at the caller's reference concretization — a difference
    only visible at degenerate sizes (where min/max-widened summaries of empty
    map ranges are meaningless) yields [None], not a spurious refutation. *)
val difference_witness :
  ?memo:memo ->
  bounds:(string -> int option * int option) ->
  symbols:(string * int) list ->
  Subset.t ->
  Subset.t ->
  ((string * int) list * int list) option

(** [uncovered ~bounds ~symbols a b] is the one-directional variant: a
    verified point of [a \ b] (an element of [a] provably outside [b]) at the
    pinned reference concretization, or [None]. [b \ a] is never consulted —
    the use case is read-coverage, where a read set strictly inside the write
    set is fine. *)
val uncovered :
  ?memo:memo ->
  bounds:(string -> int option * int option) ->
  symbols:(string * int) list ->
  Subset.t ->
  Subset.t ->
  ((string * int) list * int list) option

(** [disjoint_under ~bounds a b] proves [a] and [b] share no element under any
    symbol valuation admitted by [bounds]. [false] means "could not prove". *)
val disjoint_under :
  ?memo:memo -> bounds:(string -> int option * int option) -> Subset.t -> Subset.t -> bool
