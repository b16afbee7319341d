(** The unified static oracle: all passes over one program.

    Runs race detection ({!Races}), out-of-bounds checking ({!Bounds}),
    transient def-use hygiene ({!Defuse}), interstate liveness and
    reaching-definitions ({!Liveness}, {!Reachdef}) and the symbolic
    propagated footprint check ({!Footprint}) under shared symbol
    assumptions — sharpened by the {!Intervals} fixpoint where derivable —
    and returns the findings sorted by severity. [~carried:true] also
    reports sequential loop-carried dependences (see {!Races}); the
    default reports only definite defects, so every well-formed program —
    including sequential stencil sweeps — analyzes clean.

    The passes require a program that passes {!Sdfg.Validate.check}. On an
    invalid one a pass may raise, and nothing here catches it: a failing
    analysis is the caller's crash, never an empty list of findings. *)

open Sdfg

val analyze :
  ?carried:bool -> ?symbols:(string * int) list -> Graph.t -> Report.finding list

(** {!analyze} plus the aggregated exact-dependence-tier coverage counters of
    the race pass (see {!Races.stats}). With [memo], each state's race and
    bounds results and the footprint pass's per-state accesses are served
    from its tables ({!Reuse}) when their content keys match: a state is
    analyzed again only if its content, the analysis context or the
    container table changed, and then its race pass takes the answers of
    dependence queries asked before from the memo's query table
    ({!Deps.memo}). The interval facts, the context, the def-use,
    liveness and reaching-definitions passes and the footprint join always
    run.
    Results do not depend on [memo]. *)
val analyze_stats :
  ?memo:_ Reuse.t ->
  ?carried:bool ->
  ?symbols:(string * int) list ->
  Graph.t ->
  Report.finding list * Races.stats
