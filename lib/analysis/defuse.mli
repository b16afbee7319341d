(** Whole-program def-use hygiene for transient containers.

    Mirrors the access classification of the cutout extractor (access-node
    endpoints of dataflow edges; write-conflict-resolution writes also read;
    interstate conditions and assignments read scalar containers), then
    flags transient containers that are read but never written
    (use-before-def — the data is uninitialized, since transients are not
    program inputs) and transients that are written but never read
    (dead writes). Non-transient containers are the program's external
    interface and are exempt on both counts. *)

open Sdfg

(** Containers read / written by one state's dataflow (unsorted, with
    duplicates) — the per-state building block the interstate passes
    ({!Liveness}, {!Reachdef}) share with the whole-program check. *)
val state_accesses : State.t -> string list * string list

(** Scalar containers read by an interstate edge's condition or assignment
    right-hand sides. *)
val interstate_reads : Graph.t -> Graph.istate_edge -> string list

(** Containers read anywhere in the program, sorted and deduplicated —
    by construction equal to the cutout extractor's program-read set. *)
val reads : Graph.t -> string list

(** Containers written anywhere in the program, sorted and deduplicated. *)
val writes : Graph.t -> string list

val check : Graph.t -> Report.finding list

(** Subset-level refinement of [check]: for each transient, asks the exact
    dependence engine ({!Deps}) whether some element of a single propagated
    read access provably lies outside the fully propagated write set — the
    signature of a write set shrunk by a widened stride or shifted subset
    that still touches the container, invisible to the name-level check.
    Reads are checked per access (single affine accesses widen exactly;
    unions over-approximate), WCR accumulations are exempt on the read side,
    and declared symbols are pinned to [symbols] (default size 8 each), so
    the reported witness element is in-shape and the valuation replays
    directly. Pairs the engine cannot decide are skipped silently.

    Deliberately {e not} part of {!Oracle.analyze}: several shipped stencils
    legitimately read zero-initialized halo cells of transients, so this
    check is a {e delta} signal — {!Delta} and {!Equiv} run it on both sides
    of a transformation and report only newly flagged containers.

    With [memo], the per-state accesses (for the summary and for each
    transient's reads) and the {!Deps.uncovered} queries are served from
    its tables ({!Reuse}); the summary join always runs. Results do not
    depend on [memo]. *)
val check_coverage :
  ?memo:_ Reuse.t -> ?symbols:(string * int) list -> Graph.t -> Report.finding list
