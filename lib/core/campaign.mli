(** Campaign runner: test every instance of a set of transformations on a set
    of programs — the NPBench experiment of Sec. 6.3 (Table 2) and the
    CLOUDSC campaigns of Sec. 6.4.

    [run] is the serial in-process path. The parallel, fault-tolerant path
    lives in the [engine] library ([Engine.Worker.run_campaign]), which
    executes the same per-instance body ({!run_instance}) in forked workers
    and assembles its outcomes back into a {!t} via {!assemble}; [run] is its
    [-j 1] degenerate case and produces identical verdicts because both
    derive per-instance seeds with {!instance_seed}. *)

(** How the harness around one instance terminated. [Completed] means the
    instance produced a verdict. [Timed_out]: an engine worker exceeded its
    wall-clock deadline and was killed. [Crashed]: a worker died before
    reporting, or an exception escaped the instance (on a worker or in the
    serial {!run}). *)
type exec_status =
  | Completed
  | Timed_out of { deadline_s : float }
  | Crashed of { detail : string }

val status_name : exec_status -> string

type instance_result = {
  program : string;
  xform_name : string;
  site : Transforms.Xform.site;
  report : Difftest.report option;
      (** [None] when the translation validator proved the instance
          equivalent — its fuzz trials were skipped entirely *)
  static : Analysis.Report.finding list;
      (** the static oracle's delta findings for this instance ([] when the
          gate is off or the instance analyzes clean) *)
  dep_stats : Analysis.Races.stats;
      (** exact-dependence-tier coverage of the static oracle's race check,
          summed over the pre- and post-transformation runs ({!Analysis.Delta.between});
          {!Analysis.Races.stats_zero} when the gate is off *)
  verdict : Analysis.Equiv.verdict option;
      (** the translation validator's verdict ([None] with the gate off or
          when the transformation did not apply) *)
}

(** The journal-able summary of one instance: everything aggregation and
    resume need, without the cutout graph a full {!instance_result} carries. *)
type outcome_verdict =
  | O_passed
  | O_proved
  | O_failed of { klass : Difftest.failure_class; first_trial : int; failing_trials : int }
  | O_killed  (** no verdict: the worker was killed or crashed *)

type outcome = {
  o_program : string;
  o_xform : string;
  o_site : Transforms.Xform.site;
  o_status : exec_status;
  o_verdict : outcome_verdict;
  o_trials_run : int;
  o_static_flagged : bool;
  o_dep_pairs : int;  (** intra-scope access pairs the static race check examined *)
  o_dep_decided : int;  (** pairs decided by the exact dependence tier *)
  o_dep_sampled : int;  (** pairs that fell back to sampled valuation search *)
  o_elapsed_s : float;
  o_seed : int;  (** the per-instance seed the trials ran under *)
}

(** What a list of outcomes adds up to: the one count behind the campaign
    table, the engine's progress line, its journal footer and the service's
    [/telemetry] snapshot. Every outcome is exactly one of passed, proved,
    failed or killed, so those four sum to [instances]. *)
type tally = {
  instances : int;
  passed : int;  (** fuzz-tested and passed *)
  proved : int;  (** proved equivalent, no trials spent *)
  failed : int;  (** failing verdicts; killed instances are not among them *)
  classes : (Difftest.failure_class * int) list;
      (** [failed] split by class: semantics, input dependent, invalid code *)
  killed : int;
      (** no verdict: hung past the deadline or crashed the worker
          ([o_status] is not [Completed], or the verdict is [O_killed]) *)
  static_flagged : int;  (** instances the static oracle flagged *)
  trials : int;  (** fuzz trials executed; proved instances run none *)
  dep_pairs : int;  (** the static race check's access pairs, summed over instances *)
  dep_decided : int;  (** of those, decided by the exact dependence tier *)
  dep_sampled : int;  (** of those, left to sampled valuation search *)
}

type t = {
  rows : (string * tally) list;  (** each transformation's name and its instances' tally *)
  totals : tally;
  outcomes : outcome list;  (** one per instance, in {!items} order *)
  results : instance_result list;
      (** the serial {!run}'s full per-instance results, in order; [[]] from
          {!assemble}, and so from the engine *)
}

(** [instance_id ~program ~xform site] is the stable identity of one
    (program, transformation, site) instance — the journal key. *)
val instance_id : program:string -> xform:string -> Transforms.Xform.site -> string

(** Per-instance fuzzing seed derived from the campaign seed and the instance
    id (FNV-1a): deterministic and independent of scheduling order, so [-j N]
    and [-j 1] runs produce bit-identical verdicts. *)
val instance_seed : global:int -> string -> int

(** One instance of a campaign, with a stable identity and everything a
    worker needs to run it through {!run_instance}. Selfcheck builds its
    difftest probes as items too. *)
type item = {
  id : string;  (** {!instance_id}: the journal key *)
  program_name : string;
  program : Sdfg.Graph.t;
  xform : Transforms.Xform.t;
  site : Transforms.Xform.site;
  config : Difftest.config;
      (** the instance's config, its seed ({!instance_seed}) already substituted *)
  static_gate : bool;
  certify_gate : bool;
}

(** [items ~limit_per ~config ~static_gate ~certify_gate programs xforms]
    enumerates every application site of every transformation on every
    program: transformations outermost, then programs, then sites. Each
    item runs under [config] with its own seed and the campaign's gates.
    [limit_per] caps sites per (program, transformation) pair. {!run} and
    the engine both run exactly these items, in this order. *)
val items :
  limit_per:int option ->
  config:Difftest.config ->
  static_gate:bool ->
  certify_gate:bool ->
  (string * Sdfg.Graph.t) list ->
  Transforms.Xform.t list ->
  item list

(** The per-instance campaign body: translation validation (optional), then
    differential testing, then the static oracle evidence channel. Both the
    serial [run] loop and the engine's workers execute exactly this.
    Compiled programs live only for the instance's trial loop
    ({!Difftest.sweep}). [memo] shares the unchanged program's half of the
    static delta, and the per-state results of every state a copy left
    unchanged, across instances ({!Analysis.Delta.memo}); without it the
    instance uses its own. It keys by content, so verdicts are
    memo-oblivious and serial and parallel runs stay byte-identical. One
    application ({!Transforms.Xform.apply_copy}) feeds the certify gate,
    the change-set audit, the static delta and the fuzz path
    ({!Difftest.test_applied}); one that gives [Error] fails as invalid
    code under every gate combination. When a gate is on, the copy is
    admitted once ({!Sdfg.Validate.admit}) and both gates take that
    admission; the certify gate proves only an admitted copy
    ({!Analysis.Equiv.decide}), and an invalid one is fuzzed and fails as
    invalid code. *)
val run_instance :
  ?memo:Analysis.Delta.memo ->
  ?config:Difftest.config ->
  ?static_gate:bool ->
  ?certify_gate:bool ->
  program:string * Sdfg.Graph.t ->
  Transforms.Xform.t ->
  Transforms.Xform.site ->
  instance_result

(** Summarize a completed in-process result ([status] defaults to
    [Completed]). [elapsed_s] is only used when there is no report to take it
    from (proved instances). *)
val outcome_of_result :
  ?status:exec_status -> ?seed:int -> ?elapsed_s:float -> instance_result -> outcome

(** The outcome of an instance that produced no verdict, [O_killed] under
    [status]: a worker timed out or crashed on it, or an exception escaped
    {!run_instance} in the serial [run]. [o_elapsed_s] is the deadline of a
    timeout and 0 otherwise. *)
val killed_outcome :
  program:string -> xform:string -> site:Transforms.Xform.site -> seed:int -> exec_status ->
  outcome

val tally : outcome list -> tally

(** The campaign summary of per-instance outcomes (engine or serial): one
    row per transformation of [xforms], in order, and the totals, each the
    {!tally} of its outcomes. *)
val assemble : Transforms.Xform.t list -> outcome list -> t

(** [run programs xforms] runs the {!items} in order. [limit_per]
    caps the instances tested per (program, transformation) pair to bound
    campaign time; [None] tests everything. [static_gate] additionally runs
    the static oracle on every instance as an independent evidence channel —
    instances are still fuzzed either way, so the table shows how the two
    verdicts corroborate. [certify_gate] runs the translation validator first
    and skips the fuzz trials of instances it proves equivalent. One memo
    serves every instance of the run. An
    exception that escapes an instance settles it as [Crashed], with the
    exception's text as detail, just as an engine worker settles it. *)
val run :
  ?config:Difftest.config ->
  ?limit_per:int option ->
  ?static_gate:bool ->
  ?certify_gate:bool ->
  (string * Sdfg.Graph.t) list ->
  Transforms.Xform.t list ->
  t

(** Render the Table 2-style summary: transformation, #instances, failure
    class markers (✗ semantics, ⚠ input dependent, → invalid code), and the
    hang/crash column sourced from engine outcomes. *)
val to_table : t -> string
