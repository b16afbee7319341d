(** The typed grammar over the SDFG IR.

    A generated program is a sequence of {e fragments}, each produced by one
    production rule. Every rule emits a shape some part of the pipeline
    cares about: most are the exact patterns the transformation catalog's
    [find] functions match (nested map scopes for collapse/tiling, a
    producer→transient→consumer chain for fusion, host↔device copy chains
    for GPU kernel extraction, reduction trees for map-reduce fusion,
    canonical for-loops for peeling/unrolling), and a small {e risky}
    minority deliberately emits defective shapes — out-of-bounds reads,
    parallel write races, rank-mismatched memlets — to exercise the
    admission gate's rejection and attribution paths. *)

type rule =
  | Elementwise  (** one mapped tasklet, array → fresh transient *)
  | Fuse_chain  (** producer map → single-use transient → consumer map (MapFusion) *)
  | Nested_map  (** perfectly nested 2-D map scope (MapCollapse / MapTiling) *)
  | Reduce_tree  (** square/scale map into a transient, then a Reduce library node (MapReduceFusion) *)
  | Wcr_accumulate  (** mapped tasklet accumulating into a scalar via WCR *)
  | Copy_chain  (** whole-array copy into a transient (RedundantArrayRemoval) *)
  | Device_roundtrip  (** host→GPU copy, GPU-scheduled map, GPU→host copy *)
  | Parallel_kernel  (** top-level [Parallel]-schedule map (GpuKernelExtraction) *)
  | For_loop  (** canonical constant-trip for-loop states (LoopPeeling / LoopUnrolling) *)
  | Symbol_loop  (** interstate symbol assignment read by a later tasklet *)
  | State_split  (** unconditional assign-free state break (StateFusion) *)
  | Risky_read  (** off-by-one read past the array end — admission must reject *)
  | Risky_race  (** parallel map writing one element without WCR — admission must reject *)
  | Risky_rank  (** memlet whose rank contradicts the container — validation must reject *)

val all : rule list

val name : rule -> string

(** Size budget for one candidate program: how many fragments (production
    rule applications) it may contain. Control-flow rules ([For_loop],
    [State_split], …) also grow the state machine; the fragment count is
    the one knob because every rule costs O(1) states. *)
type budget = { min_fragments : int; max_fragments : int }

val default_budget : budget

(** [budget n] caps candidates at [n] fragments (and at least
    [min 2 n]). @raise Invalid_argument if [n < 1]. *)
val budget : int -> budget
