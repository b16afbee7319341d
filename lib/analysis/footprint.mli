(** Symbolic footprint pass of the static oracle.

    Proves, from the fully propagated program summary
    ({!Sdfg.Propagate.summarize}), that some container's read or write
    footprint escapes its declared shape for every admissible symbol value —
    the symbolic complement of the sampling-based {!Bounds} pass. Reports
    only provable escapes; undecidable subsets stay silent. *)

(** With [memo], the summary's per-state accesses come from its tables
    ({!Reuse}); the join and the check always run. *)
val check :
  ?memo:_ Reuse.t -> ?symbols:(string * int) list -> Sdfg.Graph.t -> Report.finding list
