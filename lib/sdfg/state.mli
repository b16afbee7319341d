(** A state: one dataflow multigraph of the SDFG.

    States hold nodes and directed multi-edges between them. Edges optionally
    carry a {!Memlet.t} (data movement) and connector names that attach them
    to tasklet inputs/outputs or route them through map entry/exit nodes.

    {b Cost model.} The queries under {!section-inspection} and
    {!section-scopes} are answered from a private index of the state.
    - The first query after a mutation builds it in time linear in the
      state's size, plus one sort of its nodes and one of its edges. Every
      mutator under {!section-construction} drops it.
    - Until the next mutation, [nodes], [edges], [in_edges] and [out_edges]
      return kept lists, so repeated calls allocate nothing and return
      physically equal values.
    - [topological] is kept once computed. Scope answers are kept per
      entry ([exit_of] and [scope_nodes]) and per node ([scope_of]), each
      computed by the first query that needs it.
    - A query that raises keeps nothing, so it raises again on every call:
      [Not_found] from [exit_of], [scope_nodes] or [scope_of], and
      [Failure] from [topological].
    - {!copy} shares the index with its original until either side mutates,
      so a copy's untouched states keep the answers already computed. *)

type edge = {
  e_id : int;
  src : int;
  src_conn : string option;
  dst : int;
  dst_conn : string option;
  memlet : Memlet.t option;
  dst_memlet : Memlet.t option;
      (** for access-to-access copy edges: the destination subset, when it
          differs from [memlet] (e.g. host↔GPU copies of a sub-region) *)
}

type t

val create : string -> t
val label : t -> string
val copy : t -> t

(** {1:construction Construction} *)

val add_node : t -> Node.t -> int
(** Returns the fresh node id. *)

val add_node_with_id : t -> int -> Node.t -> unit
(** Insert a node under a caller-chosen id (used by cutout extraction to keep
    original ids). Raises [Invalid_argument] if the id is taken. *)

val replace_node : t -> int -> Node.t -> unit
(** Swap the payload of an existing node, keeping its edges. *)

val add_edge :
  t ->
  ?src_conn:string ->
  ?dst_conn:string ->
  ?memlet:Memlet.t ->
  ?dst_memlet:Memlet.t ->
  int ->
  int ->
  int
(** [add_edge st src dst] connects two existing nodes; returns the edge id. *)

val remove_node : t -> int -> unit
(** Removes a node and all incident edges. *)

val remove_edge : t -> int -> unit
val set_edge_memlet : t -> int -> Memlet.t option -> unit

(** {1:inspection Inspection} *)

val node : t -> int -> Node.t
val node_opt : t -> int -> Node.t option
val has_node : t -> int -> bool
val nodes : t -> (int * Node.t) list
(** Sorted by node id for determinism. *)

val node_ids : t -> int list
val edges : t -> edge list
(** Sorted by edge id. *)

val edge : t -> int -> edge
val in_edges : t -> int -> edge list
val out_edges : t -> int -> edge list
val predecessors : t -> int -> int list
val successors : t -> int -> int list
val num_nodes : t -> int
val num_edges : t -> int

(** Source nodes: nodes without incoming edges. *)
val source_nodes : t -> int list

val sink_nodes : t -> int list

(** Topological order of all node ids.
    @raise Failure if the dataflow graph has a cycle. *)
val topological : t -> int list

(** {1:scopes Scopes} *)

(** [exit_of st entry] is the id of the {!Node.Map_exit} matching [entry].
    @raise Not_found if there is none. *)
val exit_of : t -> int -> int

(** Node ids strictly inside the scope of a map entry (excluding the entry and
    exit nodes themselves, including nested entries/exits). *)
val scope_nodes : t -> int -> int list

(** [scope_of st n] is the innermost map entry enclosing [n], if any. Entry
    and exit nodes belong to their *parent* scope. *)
val scope_of : t -> int -> int option

(** Closure of [seeds] over routing nodes (map entries/exits): any node
    adjacent to an in-set routing node joins the set, transitively. This is
    the node set a cutout extracted from [seeds] covers — extraction keeps
    whole scopes. Seeds absent from the state are tolerated (they contribute
    no neighbours but remain in the result). *)
val scope_closure : t -> int list -> int list

(** All access nodes referring to container [name]. *)
val access_nodes : t -> string -> int list

(** All containers read or written anywhere in this state, via edge memlets. *)
val referenced_containers : t -> string list
