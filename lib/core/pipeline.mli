(** Guarded optimization: the workflow of Fig. 1.

    Performance engineers apply custom transformations at scale; FuzzyFlow
    gates each instance — only instances whose cutout-level differential test
    passes are applied to the program. The result is an optimized program
    plus an audit log of what was applied, what was rejected and why.

    With [~static_gate:true] each instance first passes through the static
    dataflow oracle ({!Analysis.Delta}): if the transformation introduces a
    race, out-of-bounds access or def-use violation that the oracle can
    prove under the configured concretization, the instance is rejected
    {e before any fuzzing trial runs}, with the findings (offending
    container and overlapping subsets) in the audit log.

    Instances that survive the oracle are handed to the translation
    validator ({!Analysis.Equiv}, which proves only copies that validate):
    a proved-equivalent instance is applied with {e zero} fuzz trials and
    its certificate recorded; a refuted
    instance gets one probe trial pinned to the refutation witness before
    the full-budget run; unknowns fall through to ordinary fuzzing. One
    application of the instance to a copy of the current program
    ({!Transforms.Xform.apply_copy}) serves the change-set audit, the
    oracle, the validator, the probes and the fuzz path, and an instance
    that passes adopts that copy as the next version; one that does not
    apply is rejected as invalid code. The unchanged program's half of the
    oracle's delta is computed once per version of the current program.
    One memo ({!Analysis.Delta.memo}) serves the whole call, so a version
    re-analyzes only the states the step that made it changed. *)

type decision =
  | Applied
  | Proved_equivalent of Analysis.Certificate.t
      (** proved dataflow-equivalent — applied without any fuzz trials *)
  | Rejected of Difftest.failing
  | Rejected_static of Analysis.Report.finding list
      (** vetoed by the static oracle — no trials were spent *)
  | Stale of string  (** the site no longer matched after earlier rewrites *)
  | Crashed of string
      (** an exception escaped the instance (its printed form); the
          instance was not applied *)

type step = {
  xform_name : string;
  site : Transforms.Xform.site;
  decision : decision;
}

type log = {
  steps : step list;
  applied : int;  (** applied after fuzzing (excludes [proved]) *)
  proved : int;  (** applied on a static equivalence proof, zero trials *)
  rejected : int;  (** dynamic and static rejections combined *)
  stale : int;
  crashed : int;
  witness_probes : int;
      (** static race rejections whose exact-tier witness was replayed as a
          directed one-trial fuzz seed *)
  witness_confirmed : int;  (** witness probes that also failed dynamically *)
}

val pp_log : Format.formatter -> log -> unit

(** [optimize g xforms] returns the optimized copy of [g] (never mutated) and
    the audit log. For each transformation, sites are discovered on the
    current program and tested one by one; passing instances are applied
    immediately, so later sites see the rewritten program. After an
    application, a later site of the same transformation that [find] no
    longer reports is [Stale] without being tested. An instance that raises
    is [Crashed] and leaves the program as it was, so every site gets a
    step. The static gate (default off) uses [config.concretization] as its
    symbol assumptions. *)
val optimize :
  ?config:Difftest.config ->
  ?static_gate:bool ->
  Sdfg.Graph.t ->
  Transforms.Xform.t list ->
  Sdfg.Graph.t * log
