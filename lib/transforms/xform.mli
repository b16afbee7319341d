(** The transformation framework.

    A transformation is a named pair of [find] (enumerate application sites on
    a graph) and [apply] (mutate the graph at one site). [apply] returns the
    *white-box change set* of Sec. 3 step 2 — the Δ_T node/state set expressed
    over the pre-transformation ids — which seeds cutout extraction. Node and
    state ids are stable, so a site found on a program remains valid on an
    extracted cutout that preserves ids; applying the transformation to the
    cutout is therefore exactly "testing T on c" (Sec. 5).

    Transformations come in a correct and (where the paper found one) a buggy
    variant; the buggy variants reproduce the failures of Table 2 and
    Sec. 6.4. *)

type site = {
  state : int;  (** state of a dataflow site; [-1] for control-flow sites *)
  nodes : int list;  (** primary matched nodes in [state] *)
  states : int list;  (** matched states for control-flow sites *)
  descr : string;
}

val dataflow_site : state:int -> nodes:int list -> descr:string -> site
val controlflow_site : states:int list -> descr:string -> site
val pp_site : Format.formatter -> site -> unit

(** Stable, filesystem-safe identifier of a site: the matched state/node ids
    (not [descr]). Used for test-case file names, per-instance seed
    derivation and journal keys. *)
val site_slug : site -> string

exception Cannot_apply of string
(** Raised by [apply] when a site no longer matches (e.g. the cutout did not
    capture an element the transformation touches — itself a finding, see
    Sec. 3 step 2). *)

(** A transformation's own claim about its dataflow footprint, consumed by the
    translation-validation certifier ({!Analysis.Equiv} in the analysis
    library). The hint is advisory — the certifier re-proves preservation from
    the IR and never trusts [Preserves_sets] alone — but [Known_unsound]
    (the deliberately buggy variants) vetoes certification outright. *)
type certify_hint =
  | Preserves_sets
      (** intended to keep every container's propagated read/write set and
          their ordering intact *)
  | Known_unsound of string  (** deliberately buggy variant; the payload names the bug *)

type t = {
  name : string;
  find : Sdfg.Graph.t -> site list;
  apply : Sdfg.Graph.t -> site -> Sdfg.Diff.change_set;
  certify_hint : certify_hint option;
}

(** [apply_copy x g site] applies [x] at [site] to a copy of [g], leaving
    [g] as it was, and returns the copy with its declared change set. It is
    the one place a program is copied and transformed: [Cannot_apply],
    [Failure], [Invalid_argument] and [Not_found] give [Error] with their
    message, and any other exception escapes, so a worker's deadline never
    becomes a verdict. *)
val apply_copy :
  t -> Sdfg.Graph.t -> site -> (Sdfg.Graph.t * Sdfg.Diff.change_set, string) result

(** {1 Helpers shared by concrete transformations} *)

(** Substitute a symbol throughout one state: memlet subsets, map ranges and
    tasklet code (as a numeric constant). *)
val subst_symbol_in_state : Sdfg.State.t -> string -> Symbolic.Expr.t -> unit

(** Rename a container in all memlets and access nodes of a state. *)
val rename_container_in_state : Sdfg.State.t -> from:string -> into:string -> unit

(** Copy all nodes and edges of [src] into [dst] (fresh ids in [dst]);
    returns the node-id mapping. *)
val copy_state_into : src:Sdfg.State.t -> dst:Sdfg.State.t -> (int * int) list

(** A container name not yet declared in the graph, derived from [base]. *)
val fresh_container : Sdfg.Graph.t -> string -> string

(** All map-entry node ids of a state, sorted. *)
val map_entries : Sdfg.State.t -> int list

(** The detected canonical for-loop patterns of a graph
    (built by {!Builder.Build.for_loop}). *)
type loop = {
  guard : int;
  body : int;
  after : int;
  var : string;
  init : Symbolic.Expr.t;  (** from the entry edge assignment *)
  cond : Symbolic.Cond.t;  (** guard -> body condition *)
  update : Symbolic.Expr.t;  (** back-edge assignment *)
  entry_edge : int;  (** interstate edge carrying the init assignment *)
  enter_edge : int;  (** guard -> body edge *)
  back_edge : int;  (** body -> guard edge *)
  exit_edge : int;  (** guard -> after edge *)
}

val find_loops : Sdfg.Graph.t -> loop list
