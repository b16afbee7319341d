(** Reproducible minimal test cases.

    When FuzzyFlow finds a fault-inducing transformation instance it emits a
    self-contained artifact: the cutout graph (dot), the fault-inducing
    symbol values and inputs, and the failure description — everything needed
    to debug the transformation on a workstation (Sec. 6.4). *)

type t = {
  name : string;
  cutout : Cutout.t;
  symbols : (string * int) list;
  inputs : (string * float array) list;
  failure : Difftest.failure_kind;
  step_limit : int;  (** the interpreter step limit the failure was found at *)
}

(** Build a test case from a failing report by re-deriving the fault-inducing
    inputs from the recorded trial seed; [step_limit] comes from [config]. *)
val of_report :
  ?config:Difftest.config -> original:Sdfg.Graph.t -> Difftest.report -> t option

(** Human-readable reproduction bundle. *)
val render : t -> string

(** [save dir tc] writes [render], a machine-readable bundle ([.case.dat]:
    symbols, bit-exact inputs, failure, step limit, cutout metadata), the
    cutout's dot
    file, and the serialized cutout graph ({!Sdfg.Serialize}) under [dir];
    returns the paths written. *)
val save : string -> t -> string list

type load_error = { path : string; reason : string }

(** Inverse of [save]: reload a test case from any of the paths [save]
    returned (or their common base path). The cutout graph is read back via
    {!Sdfg.Serialize}, so node/state ids — and hence the recorded
    transformation site — stay valid. A bundle without a step-limit line
    (written by an earlier version) gets the interpreter's default. A
    missing, truncated or corrupt bundle is a typed [Error], never an
    exception. *)
val load : string -> (t, load_error) result

(** Replay: run the cutout under the stored inputs and step limit and return
    the outcome — used to confirm a saved case still reproduces. *)
val replay : t -> (Interp.Exec.outcome, Interp.Exec.fault) result
