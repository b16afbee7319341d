(** Memlet propagation through map scopes and across states.

    An edge crossing a map entry/exit covers the union over all parameter
    values of the inner accesses. We over-approximate that union with a
    bounding box, substituting each parameter by its range endpoints — the
    conservative direction required by side-effect analysis (Sec. 3.1).

    This module also defines what a program reads and writes (the access
    model, below), once for every consumer. On top of it and of
    single-scope widening it builds the fully propagated program summary
    the translation-validation certifier compares: per
    container, the read set and write set widened through every enclosing
    scope and unioned across all states, plus a coarse read/write ordering
    signature. *)

(** [through_map ~params ~ranges subset] widens [subset] over all values each
    parameter takes in its range. Two shapes widen exactly: a bare-parameter
    dimension maps to the parameter's grid itself, and an aligned tile body
    [p : min(p+k, H) : s] over tiles [p ∈ lo : H : ps] (with [ps mod s = 0]
    and [k >= ps-1]) has image exactly [lo : H : s] — keeping the stride
    visible to the dependence engine. Any other parameter occurring in a
    stride widens that dimension to stride 1 (a superset of every
    instantiation).
    @raise Invalid_argument when [params] and [ranges] differ in length. *)
val through_map :
  params:string list ->
  ranges:Symbolic.Subset.range list ->
  Symbolic.Subset.t ->
  Symbolic.Subset.t

(** Widen one range over one parameter's span; exposed for tests. *)
val widen_range :
  param:string -> prange:Symbolic.Subset.range -> Symbolic.Subset.range -> Symbolic.Subset.range

(** Widen a memlet. *)
val memlet_through_map :
  params:string list -> ranges:Symbolic.Subset.range list -> Memlet.t -> Memlet.t

(** {1 The access model}

    What a program reads and writes, defined once for every consumer. There
    are two views of one state's dataflow:

    - the {e access-node view} ({!edge_rw} and what is built on it): a read
      where an edge leaves an access node, a write where an edge enters one
      ({!written_memlet}); a write with conflict resolution (WCR) also reads
      its target. Cutout extraction, the minimum input-flow cut, divergence
      localization and the name-level def-use passes use it.
    - the {e leaf view} ({!leaves}): reads and writes at tasklet and library
      connectors and at both endpoints of a copy, each with its enclosing
      map scopes. The race and bounds checks and the propagated summaries
      use it.

    Both views add the interstate reads ({!interstate_reads}). On programs
    whose accumulations carry their WCR up to the access node the two give
    the same container sets; an accumulation whose WCR stops at the map
    exit is a read only in the leaf view. *)

type kind = Read | Write of Memlet.wcr option

val is_write : kind -> bool

(** The memlet an edge writes into its destination when that is an access
    node: its [dst_memlet], else its [memlet]. [None] otherwise. *)
val written_memlet : State.t -> State.edge -> Memlet.t option

(** [(reads, writes)] of one edge in the access-node view, as (container,
    subset) pairs. *)
val edge_rw :
  State.t -> State.edge -> (string * Symbolic.Subset.t) list * (string * Symbolic.Subset.t) list

(** {!edge_rw} over the edges with both endpoints in [nodes], unsorted and
    with duplicates. *)
val nodes_rw :
  State.t -> int list -> (string * Symbolic.Subset.t) list * (string * Symbolic.Subset.t) list

(** {!edge_rw} over every edge of a state, unsorted and with duplicates. *)
val state_rw : State.t -> (string * Symbolic.Subset.t) list * (string * Symbolic.Subset.t) list

(** Scalar containers read by an interstate edge's condition or assignment
    right-hand sides, with duplicates. *)
val interstate_reads : Graph.t -> Graph.istate_edge -> string list

(** Containers read anywhere in a program, sorted: the access-node view of
    every state plus every interstate edge. *)
val program_reads : Graph.t -> string list

(** Containers written anywhere in a program (access-node view), sorted. *)
val program_writes : Graph.t -> string list

(** One leaf access. [subset] is as written on the edge; [scopes] are the
    enclosing map entries, innermost first (see {!widen_through}). *)
type leaf = {
  node : int;  (** the consuming or producing node *)
  edge : int;
  container : string;
  subset : Symbolic.Subset.t;
  kind : kind;
  scopes : int list;
}

(** The leaf accesses of one state, in edge order. A copy without a
    [dst_memlet] writes the whole destination container. *)
val leaves : Graph.t -> State.t -> leaf list

(** The map entries enclosing a node, innermost first. *)
val scope_chain : State.t -> int -> int list

(** Widen a subset through map entries, innermost first, folding each
    scope's parameters out with {!through_map}. *)
val widen_through : State.t -> int list -> Symbolic.Subset.t -> Symbolic.Subset.t

(** {1 Propagated program summaries} *)

(** One fully propagated leaf access: its subset is widened through every
    enclosing map scope, and [phase] is the topological position of its
    outermost scope group within the state — accesses inside one parallel
    scope share a phase; sequenced groups get distinct ones. *)
type access = { container : string; subset : Symbolic.Subset.t; kind : kind; phase : int }

(** The {!leaves} of one state, widened to state top level. They depend on
    the state and the container table only, not on any symbol bounds. *)
val state_accesses : Graph.t -> State.t -> access list

(** Whole-program summary: per-container read/write unions (WCR writes count
    as reads too — they accumulate into their target), the containers
    receiving WCR writes, and the per-container R/W/RW event order over all
    phases of all states (BFS order), with consecutive duplicate events
    collapsed. Interstate-edge conditions and assignments reading scalar
    containers contribute read events sequenced after their source state. *)
type summary = {
  reads : (string * Symbolic.Subset.t) list;
  writes : (string * Symbolic.Subset.t) list;
  wcr_writes : string list;
  order : (string * [ `R | `W | `RW ]) list;
}

(** The summary of [g]. [accesses sid st] supplies each state's
    {!state_accesses} (pass [fun _ st -> state_accesses g st] to compute
    them here), so a caller that keeps them across programs re-runs only
    the join. *)
val summarize :
  ?bounds:(string -> int option * int option) ->
  accesses:(int -> State.t -> access list) ->
  Graph.t ->
  summary

(** Free symbols of all read/write subsets of a summary, sorted. *)
val free_syms_of_summary : summary -> string list
