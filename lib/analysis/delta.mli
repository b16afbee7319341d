(** Transformation delta verification.

    Runs the full static oracle on a program and on its transformed copy,
    and reports only the findings the transformation {e introduced}.
    Pre-existing findings (same pass, container and state) are not
    attributed to the candidate, so a noisy baseline cannot mask nor fake a
    regression.
    Read-coverage of transients ({!Defuse.check_coverage}) is diffed the
    same way, by container name: a container counts only when it is
    flagged after the transformation and not before.

    The delta has two halves. The unchanged program's half (its oracle
    findings and counters, and the containers its coverage check flags) is
    the same for every instance on that program, so a caller testing many
    instances passes one {!memo} and computes it once per program and
    concretization. The transformed copy's half is analyzed per instance,
    but incrementally: its per-state race and bounds results, per-state
    accesses and coverage queries come from the same memo's content-keyed
    tables ({!Reuse}), so only the states whose content, analysis context
    or container table differ from a program analyzed before are checked
    again. The whole-program passes (interval facts, def-use, liveness,
    reaching definitions, the summary joins) re-run on every copy.

    Only a copy that {!Sdfg.Validate.admit} accepts is analyzed. An invalid
    copy is the fuzz path's invalid code, not a static finding: its delta
    has no findings and the unchanged program's counters. A pass that
    raises on a valid program is not caught here; the exception reaches the
    caller, which settles the instance as crashed. *)

open Sdfg

(** The unchanged program's half of a delta. *)
type baseline

(** Baselines keyed by the program's content and sorted concretization,
    next to the per-state and per-query tables ({!Reuse}); each table holds
    a constant number of entries and is emptied wholesale when full.
    Results never depend on the memo, only their cost does. *)
type memo = baseline Reuse.t

val create_memo : unit -> memo

(** Hits and misses of each table; a miss computes. *)
val memo_stats : memo -> Reuse.stats

(** [between ~memo ~symbols g admitted] analyzes a transformed copy [g']
    of [g] under [symbols], given its admission [admitted]
    ([Validate.admit g']): the introduced findings, sorted, with the
    exact-dependence-tier counters summed over both programs. When [g']
    failed admission, it is not analyzed: no findings, and [g]'s counters
    alone. It applies and validates nothing, so the caller's one
    application and one admission serve every gate. *)
val between :
  memo:memo ->
  symbols:(string * int) list ->
  Graph.t ->
  (Validate.valid, Validate.error) result ->
  Report.finding list * Races.stats

(** {!between} [g] and the admission of its copy from
    {!Transforms.Xform.apply_copy}, the two halves sharing a memo that
    lives for the call. [None] when the application gives [Error]: the
    fuzz path's invalid code, not a static finding. *)
val verify_stats :
  ?symbols:(string * int) list ->
  Graph.t ->
  Transforms.Xform.t ->
  Transforms.Xform.site ->
  (Report.finding list * Races.stats) option

(** The findings of {!verify_stats}. *)
val verify :
  ?symbols:(string * int) list ->
  Graph.t ->
  Transforms.Xform.t ->
  Transforms.Xform.site ->
  Report.finding list option
