(** Transformation delta verification.

    Runs the full static oracle before and after applying a candidate
    transformation instance to a scratch copy of the program, and reports
    only the findings the transformation {e introduced}. Pre-existing
    findings (same pass, container and state) are not attributed to the
    candidate, so a noisy baseline cannot mask nor fake a regression.
    Read-coverage of transients ({!Defuse.check_coverage}) is diffed the
    same way, by container name: a container counts only when it is
    flagged after the transformation and not before.

    The delta has two halves. The unchanged program's half (its oracle
    findings and counters, and the containers its coverage check flags) is
    the same for every instance on that program, so a caller testing many
    instances passes one {!memo} and computes it once per program and
    concretization; only the transformed program is analyzed per instance.

    A pass that itself raises is treated as producing no findings: the
    oracle only ever vetoes with evidence. *)

open Sdfg

(** The unchanged program's half of a delta. *)
type baseline

(** Baselines keyed by program digest and sorted concretization
    ({!Sdfg.Memo}, default capacity). Results never depend on the memo,
    only their cost does. Create one with [Sdfg.Memo.create ()]. *)
type memo = baseline Memo.t

(** [apply ?memo ?symbols g x site] applies [x] at [site] to a copy of [g]
    and analyzes the result under [symbols] (default none): the
    transformed copy, the change set [apply] returned, and the introduced
    findings, sorted, with the exact-dependence-tier counters summed over
    both programs. [None] when the site no longer matches
    ({!Transforms.Xform.Cannot_apply}) — staleness is the pipeline's
    concern, not a static finding. *)
val apply :
  ?memo:memo ->
  ?symbols:(string * int) list ->
  Graph.t ->
  Transforms.Xform.t ->
  Transforms.Xform.site ->
  (Graph.t * Diff.change_set * (Report.finding list * Races.stats)) option

(** The findings and counters of {!apply}, without a memo. *)
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
