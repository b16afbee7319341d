(** Concrete memory for SDFG execution.

    Each container is backed by a flat [float array] in row-major order with
    its concretized shape. Device-resident (GPU) buffers are allocated with
    deterministic garbage values — uninitialized device memory is exactly what
    the GPU-kernel-extraction bug of Sec. 6.4 leaks back to the host. *)

type buffer = {
  name : string;
  desc : Sdfg.Graph.datadesc;
  cshape : int array;  (** concretized shape; [||] for scalars *)
  data : float array;  (** length = product of [cshape], or 1 for scalars *)
}

type t = (string, buffer) Hashtbl.t

exception Out_of_bounds of { container : string; index : int array; shape : int array }

(** [alloc ~garbage_seed env name desc] concretizes the shape under [env] and
    allocates: zero-filled for host storage, deterministic pseudo-random
    garbage for GPU storage. Shapes that concretize to a non-positive
    dimension raise [Invalid_argument]. *)
val alloc : garbage_seed:int -> int Symbolic.Expr.Env.t -> string -> Sdfg.Graph.datadesc -> buffer

(** The shape-evaluation half of {!alloc}, exposed so a compiled execution
    plan ({!Plan}) can resolve shapes once and allocate per run.
    @raise Invalid_argument on a non-positive dimension. *)
val concretize_shape : int Symbolic.Expr.Env.t -> string -> Sdfg.Graph.datadesc -> int array

(** The allocation half of {!alloc}: build a buffer over an already
    concretized shape (zero-filled for host storage, deterministic garbage
    for GPU storage). *)
val alloc_shaped : garbage_seed:int -> string -> Sdfg.Graph.datadesc -> int array -> buffer

val num_elements : buffer -> int

(** Round-trip a float through the container dtype (f32 rounding, integer
    truncation, bool saturation). *)
val cast : Sdfg.Dtype.t -> float -> float

(** Elements of a concretized subset in row-major iteration order.
    @raise Out_of_bounds if any element falls outside the buffer. *)
val read_subset : buffer -> Symbolic.Subset.crange list -> float array

(** Writes values (cast to the buffer dtype) over a concretized subset; the
    value count must equal the subset volume.
    @raise Out_of_bounds as {!read_subset}. *)
val write_subset : buffer -> Symbolic.Subset.crange list -> float array -> unit

(** Like {!write_subset} but combining with the previous contents under a
    write-conflict resolution. *)
val accumulate_subset :
  buffer -> Symbolic.Subset.crange list -> Sdfg.Memlet.wcr -> float array -> unit

val buffer : t -> string -> buffer
val buffer_opt : t -> string -> buffer option
