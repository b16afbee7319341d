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
          summed over the pre- and post-transformation runs ({!Analysis.Delta.verify_stats});
          {!Analysis.Races.stats_zero} when the gate is off *)
  verdict : Analysis.Equiv.verdict option;
      (** the translation validator's verdict ([None] with the gate off or
          when the site went stale before certification) *)
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

(** Aggregate over all instances of one transformation. *)
type row = {
  xform_name : string;
  instances : int;
  passed : int;  (** fuzz-tested and passed (excludes [proved] and [killed]) *)
  proved : int;  (** proved equivalent, no trials spent *)
  failed : int;
  killed : int;  (** hung past the deadline or crashed the worker *)
  static_flagged : int;  (** instances the static oracle flagged *)
  classes : (Difftest.failure_class * int) list;  (** failure counts by class *)
  avg_first_trial : float;  (** mean first failing trial over failing instances *)
}

type t = {
  rows : row list;
  results : instance_result list;
      (** full per-instance results; under an engine resume only the freshly
          executed instances appear here (journaled ones have outcomes only) *)
  outcomes : outcome list;  (** one per instance, in queue order *)
  total_instances : int;
  total_failed : int;  (** failing verdicts plus killed instances *)
  total_proved : int;
  total_killed : int;
}

(** [instance_id ~program ~xform site] is the stable identity of one
    (program, transformation, site) instance — the journal key. *)
val instance_id : program:string -> xform:string -> Transforms.Xform.site -> string

(** Per-instance fuzzing seed derived from the campaign seed and the instance
    id (FNV-1a): deterministic and independent of scheduling order, so [-j N]
    and [-j 1] runs produce bit-identical verdicts. *)
val instance_seed : global:int -> string -> int

(** The per-instance campaign body: translation validation (optional), then
    differential testing, then the static oracle evidence channel. Both the
    serial [run] loop and the engine's workers execute exactly this.
    Compiled programs live only for the instance's trial loop
    ({!Difftest.sweep}). [memo] shares the unchanged program's half of the
    static delta, and the per-state results of every state a copy left
    unchanged, across instances ({!Analysis.Delta.memo}); without it the
    instance uses its own. It keys by content, so verdicts are
    memo-oblivious and serial and parallel runs stay byte-identical. With
    either gate on, the transformation is applied to one copy of the
    program, whose delta feeds the certify gate, the change-set audit and
    the static findings. The certify gate proves only a copy that
    validates ({!Analysis.Equiv.decide}); an invalid one is fuzzed and
    fails as invalid code. *)
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

(** Build the campaign summary from per-instance outcomes (engine or serial).
    Rows are produced for [xforms] in order; [results] carries whatever full
    results are available. *)
val assemble : ?results:instance_result list -> Transforms.Xform.t list -> outcome list -> t

(** Total fuzz trials actually executed across the campaign (proved-equivalent
    instances contribute zero) — the denominator of the trials-saved metric. *)
val trials_spent : t -> int

(** [run programs xforms] finds and tests every application site. [limit_per]
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
