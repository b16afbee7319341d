(** Structural validation of SDFGs.

    A transformation that produces a graph failing validation corresponds to
    the "generates invalid code" failure class of Table 2 in the paper. *)

type error = { state : int option; what : string }

val pp_error : Format.formatter -> error -> unit

(** Total order on errors: graph-wide errors ([state = None]) first, then by
    state id, then by message. *)
val compare_error : error -> error -> int

(** All structural problems found, sorted by {!compare_error} and deduplicated;
    the empty list means the graph is valid. Checks: container references,
    subset dimensionality, map entry/exit pairing, map scope nesting (the
    scopes of two entries with exits are disjoint or one contains the
    other), tasklet/library connector wiring, GPU-schedule storage
    discipline, interstate edge endpoints, dataflow acyclicity. Callers
    (notably generator admission) rely on getting the complete list so
    rejections can be attributed, not just the first failure. *)
val check : Graph.t -> error list

(** [check_exn g] raises [Failure] with a readable message on the first
    problem. *)
val check_exn : Graph.t -> unit
