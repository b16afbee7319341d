(** Graphviz export for debugging extracted cutouts and transformations. *)

val to_dot : Graph.t -> string
