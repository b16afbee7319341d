(** Differential testing of transformations (Sec. 5).

    A transformation instance is tested by extracting its cutout c, applying
    T to a copy to get c' = T(c), then running both over sampled input
    configurations and comparing the system state. A trial fails when the two
    runs diverge: numerically beyond the threshold, or by fault behaviour
    (one crashes, hangs, or goes out of bounds while the other does not). *)

type failure_kind =
  | Numerical of { container : string; flat_index : int; original : float; transformed : float }
  | Fault_divergence of {
      original : Interp.Exec.fault option;
      transformed : Interp.Exec.fault option;
    }
  | Invalid_transformed of string
      (** T could not be applied to the cutout, or produced an invalid graph *)

val pp_failure : Format.formatter -> failure_kind -> unit

(** How an instance failed over the whole trial budget — the three failure
    classes of Table 2. *)
type failure_class =
  | Semantics  (** every trial diverged *)
  | Input_dependent  (** some trials passed, some diverged *)
  | Invalid_code

val class_to_string : failure_class -> string

type failing = {
  klass : failure_class;
  first_trial : int;  (** 1-based trial number of the first divergence *)
  failing_trials : int;
  kind : failure_kind;
  symbols : (string * int) list;  (** the fault-inducing configuration *)
}

type verdict = Pass | Fail of failing

type config = {
  trials : int;
  seed : int;
  threshold : float;  (** numerical tolerance t_Δ; 0 means bitwise *)
  max_size : int;  (** Size_max for size symbols *)
  step_limit : int;
  use_min_cut : bool;
  black_box : bool;
      (** recover Δ_T by structural diff ({!Sdfg.Diff.compute}) instead of
          trusting the transformation's self-reported change set (Sec. 3,
          step 2) *)
  shrink : bool;
      (** shrink cutout containers to their accessed sub-regions (Sec. 3) *)
  concretization : (string * int) list;
      (** symbol values used to concretize overlap checks and min-cut
          capacities *)
  custom_constraints : (string * (int * int)) list;
  inject_transformed : Interp.Exec.injection option;
      (** faultlab: deterministic fault injected into the transformed run
          only, so the self-validation campaign can attribute any divergence
          to the seeded fault *)
  batch : int;
      (** inert: nothing in the library reads it. Kept only because the
          benchmark's workloads and re-drive (bench/campaign) set it; it
          leaves with them. *)
}

val default_config : config

type report = {
  xform_name : string;
  site : Transforms.Xform.site;
  verdict : verdict;
  cutout : Cutout.t;
  min_cut_stats : Min_cut.stats option;
  shrink_stats : Cutout.shrink_stats option;
  trials_run : int;
  elapsed_s : float;
}

val pp_report : Format.formatter -> report -> unit

(** One run of a program: its final state, or the fault it stopped at. *)
type run = (Interp.Exec.outcome, Interp.Exec.fault) result

(** [sweep ~original ~transformed ~config ~config_x] sets up one
    instance's execution plans for two admitted programs. Apply the result
    to each trial's [(symbols, inputs)] to run it on the original program
    under [config], then on the transformed one under [config_x], and get
    both outcomes. For as long as the partial application lives, each
    program is lowered once, by {!Interp.Plan.compile} at its first trial,
    and each trial binds its valuation to that lowering. *)
val sweep :
  original:Sdfg.Validate.valid ->
  transformed:Sdfg.Validate.valid ->
  config:Interp.Exec.config ->
  config_x:Interp.Exec.config ->
  (string * int) list * (string * float array) list ->
  run * run

(** [test_applied g x site applied] tests one transformation instance
    through the full FuzzyFlow pipeline, given the caller's application of
    [x] to a copy of [g] ({!Transforms.Xform.apply_copy}), which it only
    reads: cutout extraction from its change set, optional input
    minimization, application to the cutout, constraint derivation,
    differential fuzzing. An [Error], or a transformed cutout that fails
    admission ({!Sdfg.Validate.admit}), is [Invalid_code] at
    [first_trial = 0]. Each program is validated once: the transformed
    cutout by that admission, the extracted cutout by
    {!Sdfg.Validate.check_exn}, which raises on a cutout that fails, a
    harness bug. Trials run one at a time through one {!sweep}, so
    compiled programs live exactly as long as the instance's trial loop. *)
val test_applied :
  ?config:config ->
  Sdfg.Graph.t ->
  Transforms.Xform.t ->
  Transforms.Xform.site ->
  (Sdfg.Graph.t * Sdfg.Diff.change_set, string) result ->
  report

(** {!test_applied} after [Transforms.Xform.apply_copy x g site]. *)
val test_instance :
  ?config:config ->
  Sdfg.Graph.t ->
  Transforms.Xform.t ->
  Transforms.Xform.site ->
  report

(** [probe ~config ~valuation g x site applied] is {!test_applied} under
    [config] with one trial, every symbol of [valuation] pinned to its
    value: a directed probe at a solver witness. Pinned names the cutout
    does not sample are ignored by constraint derivation. *)
val probe :
  config:config ->
  valuation:(string * int) list ->
  Sdfg.Graph.t ->
  Transforms.Xform.t ->
  Transforms.Xform.site ->
  (Sdfg.Graph.t * Sdfg.Diff.change_set, string) result ->
  report

(** Baseline: run the whole program against its transformed version (no
    cutout) — what the paper's 528× speedup is measured against. Invalid
    code is classified as {!test_applied} classifies it: an application
    that gives [Error], or a transformed program that fails
    {!Sdfg.Validate.admit}, fails as [Invalid_code] with [first_trial = 0].
    The program itself must validate ({!Sdfg.Validate.check_exn}). Returns
    the verdict and elapsed seconds. *)
val test_whole_program :
  ?config:config ->
  Sdfg.Graph.t ->
  Transforms.Xform.t ->
  Transforms.Xform.site ->
  verdict * float

(** Whether two values of one container element agree: both NaN, equal, or
    both finite and within [threshold] relative to the larger magnitude
    (at least 1). An infinity only matches itself. *)
val values_match : threshold:float -> float -> float -> bool

(** Compare two runs' system state; exposed for the fuzzer. *)
val compare_outcomes :
  threshold:float -> system_state:string list -> run -> run -> failure_kind option
