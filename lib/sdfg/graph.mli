(** The stateful dataflow multigraph: a state machine over dataflow states.

    Containers are declared once, with parametric shapes, a dtype, a storage
    location (host or simulated GPU) and a [transient] flag. Non-transient
    containers are the program's externally visible inputs/outputs
    (Sec. 3.1, external data analysis). *)

type storage = Host | Gpu

type datadesc = {
  shape : Symbolic.Expr.t list;  (** empty for scalars *)
  dtype : Dtype.t;
  transient : bool;
  storage : storage;
}

(** Interstate edge: taken when [cond] holds; then each [assigns] binding
    updates a symbol. Conditions and assignment right-hand sides may read
    SDFG symbols and scalar containers. *)
type istate_edge = {
  ie_id : int;
  src : int;
  dst : int;
  cond : Symbolic.Cond.t;
  assigns : (string * Symbolic.Expr.t) list;
}

type t

val create : string -> t
val name : t -> string
val copy : t -> t

(** {1 Containers and symbols} *)

val add_container : t -> string -> datadesc -> unit

val add_array :
  t -> ?transient:bool -> ?storage:storage -> string -> Dtype.t -> Symbolic.Expr.t list -> unit

val add_scalar : t -> ?transient:bool -> ?storage:storage -> string -> Dtype.t -> unit
val remove_container : t -> string -> unit
val container : t -> string -> datadesc
val container_opt : t -> string -> datadesc option
val has_container : t -> string -> bool
val containers : t -> (string * datadesc) list
(** Sorted by name. *)

val set_transient : t -> string -> bool -> unit

val add_symbol : t -> string -> unit
val symbols : t -> string list
(** Declared free symbols (program parameters), sorted. *)

(** {1 States and control flow} *)

val add_state : t -> string -> int

(** Insert a state under a caller-chosen id (used by cutout extraction to
    keep original state ids). Raises [Invalid_argument] if the id is taken. *)
val add_state_with_id : t -> int -> State.t -> unit
val add_state_after : t -> int -> string -> int
(** Appends a state connected from [src] with an always-true edge. *)

val state : t -> int -> State.t
val state_opt : t -> int -> State.t option
val states : t -> (int * State.t) list
(** Sorted by state id. *)

val state_ids : t -> int list
val remove_state : t -> int -> unit
val set_start_state : t -> int -> unit
val start_state : t -> int

val add_istate_edge :
  t -> ?cond:Symbolic.Cond.t -> ?assigns:(string * Symbolic.Expr.t) list -> int -> int -> int

val istate_edges : t -> istate_edge list
(** Sorted by edge id. *)

val istate_edge : t -> int -> istate_edge
val remove_istate_edge : t -> int -> unit
val out_istate_edges : t -> int -> istate_edge list
val in_istate_edges : t -> int -> istate_edge list

(** State ids in a BFS order from the start state. *)
val states_bfs : t -> int list

(** States reachable from [src] (excluding [src] unless on a cycle). *)
val reachable_states : t -> int -> int list

(** States that can reach [dst] (excluding [dst] unless on a cycle). *)
val coreachable_states : t -> int -> int list

(** {1 Whole-program views} *)

(** Non-transient containers: the program's input/output interface, sorted. *)
val external_containers : t -> string list

(** Free symbols used anywhere (shapes, memlets, conditions) but also declared
    via {!add_symbol}. *)
val all_free_syms : t -> string list
