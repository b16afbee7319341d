(** Fuzzing strategies over a cutout pair (Sec. 5.1).

    Three modes mirror the paper's comparison in Sec. 6.1:
    - [Uniform]: sample everything uniformly at random, no analysis — the
      black-box baseline (many uninteresting crashes, slow discovery);
    - [Graybox]: sample under the derived constraints of {!Constraints};
    - [Coverage]: AFL-style loop on top of the constraints — keep a corpus,
      mutate entries, retain inputs that reach new interpreter coverage. *)

type mode = Uniform | Graybox | Coverage

val mode_to_string : mode -> string

type config = {
  max_trials : int;
  seed : int;
  threshold : float;
  step_limit : int;
  corpus_init : int;  (** initial corpus size for [Coverage] *)
}

val default_config : config

type result = {
  trials_to_failure : int option;  (** 1-based; [None] = no divergence found *)
  trials_run : int;
  distinct_coverage : int;  (** coverage points reached on the original cutout *)
  uninteresting_crashes : int;
      (** trials where both sides faulted identically — wasted effort that
          gray-box constraints exist to avoid (Sec. 5.1) *)
  failure : Difftest.failure_kind option;
  failing_symbols : (string * int) list;
}

(** [run mode ~original ~cutout ~transformed] fuzzes until divergence or the
    trial budget is exhausted. [original] is the full program (used for
    constraint derivation); [transformed] is T(cutout.program). Both
    programs must validate: each is admitted once
    ({!Sdfg.Validate.check_exn}, which raises [Failure] otherwise). Trials
    run one at a time through one {!Difftest.sweep}, so each program is
    lowered once during the call and each trial binds its valuation. *)
val run :
  ?config:config ->
  mode ->
  original:Sdfg.Graph.t ->
  cutout:Cutout.t ->
  transformed:Sdfg.Graph.t ->
  result
