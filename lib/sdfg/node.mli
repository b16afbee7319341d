(** Dataflow graph nodes.

    A state's dataflow graph contains access nodes (data containers), tasklets
    (leaf computations), map entry/exit pairs (parametric parallel scopes) and
    library nodes (coarse-grained operators such as matrix products). *)

(** Execution schedule of a map scope. [Gpu_device] scopes read and write
    device-resident containers only; the interpreter faults otherwise,
    modelling invalid generated code. *)
type schedule = Sequential | Parallel | Gpu_device

type map_info = {
  label : string;
  params : string list;  (** one iteration variable per dimension *)
  ranges : Symbolic.Subset.range list;  (** one inclusive range per parameter *)
  schedule : schedule;
}

(** Coarse-grained library operators (stand-ins for MKL/cuBLAS calls). *)
type lib_kind =
  | Mat_mul  (** C\[M,N\] = A\[M,K\] · B\[K,N\] *)
  | Batched_mat_mul  (** C\[b,M,N\] = A\[b,M,K\] · B\[b,K,N\] for each batch b *)
  | Reduce of Memlet.wcr * int list
      (** reduce the input over the given axes with the given operator *)

type t =
  | Access of string  (** read/write point for a named data container *)
  | Tasklet of { label : string; code : Tcode.t }
  | Map_entry of map_info
  | Map_exit of { entry : int }  (** id of the matching {!Map_entry} node *)
  | Library of { label : string; kind : lib_kind }

val tasklet : string -> string -> t
(** [tasklet label code] parses [code] with {!Tcode.of_string}. *)

val label : t -> string
val is_map_entry : t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
