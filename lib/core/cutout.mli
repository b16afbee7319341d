(** Test-case (cutout) extraction — Sec. 3 of the paper.

    Given a change set Δ_T, extracts the minimal dataflow subgraph capturing
    the change into a standalone program, then determines

    - the {e system state}: every container written inside the cutout that is
      externally visible or read again later in the original program
      (external-data analysis + forward program-flow BFS, Sec. 3.1), and
    - the {e input configuration}: every container read inside the cutout
      that is externally visible or possibly written earlier (reverse BFS,
      Sec. 3.2).

    Reads and writes are the access-node view of {!Sdfg.Propagate}.

    Node and state ids are preserved, so the transformation site remains
    valid on the extracted program and T can be applied to the cutout
    directly. *)

type t = {
  program : Sdfg.Graph.t;  (** standalone, runnable cutout program *)
  kind : kind;
  input_config : string list;  (** sampled & provided before each trial *)
  system_state : string list;  (** compared after each trial *)
  free_symbols : string list;  (** parameters to sample *)
}

and kind =
  | Dataflow of { state : int; nodes : int list }  (** single-state cutout *)
  | Multistate of { states : int list }  (** control-flow cutout *)

(** Overlap checks concretize subsets under these bindings; symbols missing
    from the list make the check conservatively report overlap. *)
type options = { symbols : (string * int) list }

val default_options : options

(** [extract ?options p change_set] builds the cutout for Δ_T = [change_set].
    Dataflow change sets confined to one state yield a [Dataflow] cutout; any
    state-level entries (or nodes spread over several states) yield a
    [Multistate] cutout covering those states.
    @raise Invalid_argument on an empty change set. *)
val extract : ?options:options -> Sdfg.Graph.t -> Sdfg.Diff.change_set -> t

(** Re-extract with the cutout grown to [nodes] (used after the minimum
    input-flow cut chose a larger, cheaper cutout). *)
val extract_dataflow :
  ?options:options -> Sdfg.Graph.t -> state:int -> nodes:int list -> t

(** Sub-region container minimization (Sec. 3, step 3): when every access to
    a container inside the cutout provably stays below a bound smaller than
    the declared dimension, the container is shrunk to that bound — e.g. a
    computation touching only indices 0–9 of [my_arr\[N\]] keeps a 10-element
    array. Bounds stay symbolic where the accesses are; containers whose
    access bounds cannot be evaluated under [symbols] (e.g. scope-local
    per-iteration views) are left unchanged. *)

type shrink_stats = {
  original_bytes : int;
  shrunk_bytes : int;
  resized : (string * int * int) list;  (** container, old elements, new *)
}

val shrink_containers : t -> symbols:(string * int) list -> t * shrink_stats

(** {!Sdfg.Propagate.program_reads}, the read set the system state and
    input configuration are built from; kept under this name for the
    campaign benchmark's re-drive. *)
val program_reads : Sdfg.Graph.t -> string list

(** Total input-configuration size in elements under concrete symbols —
    the quantity the minimum input-flow cut shrinks (Sec. 4). *)
val input_elements : t -> symbols:(string * int) list -> int

(** Same, in bytes. *)
val input_bytes : t -> symbols:(string * int) list -> int

val pp : Format.formatter -> t -> unit
