(** Memlet propagation through map scopes and across states.

    An edge crossing a map entry/exit covers the union over all parameter
    values of the inner accesses. We over-approximate that union with a
    bounding box, substituting each parameter by its range endpoints — the
    conservative direction required by side-effect analysis (Sec. 3.1).

    On top of single-scope widening this module builds the fully propagated
    program summary the translation-validation certifier compares: per
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

(** {1 Propagated program summaries} *)

type kind = Read | Write of Memlet.wcr option

(** One fully propagated leaf access: its subset is widened through every
    enclosing map scope, and [phase] is the topological position of its
    outermost scope group within the state — accesses inside one parallel
    scope share a phase; sequenced groups get distinct ones. *)
type access = { container : string; subset : Symbolic.Subset.t; kind : kind; phase : int }

(** All propagated accesses of one state (tasklet/library connectors and
    copy-edge endpoints), widened to state top level. They depend on the
    state and the container table only, not on any symbol bounds. *)
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
