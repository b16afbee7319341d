(** The self-validation campaign: run every fault in the {!Plan} catalog
    through the stack and score whether the oracles caught it.

    Every interpreter and transform fault is a campaign instance: the spec's
    workload, its transformation (the identity carrier with the injection in
    its config, or the mutated transform under both gates) and its site.
    {!Engine.Supervisor.run} dispatches them to supervised local workers,
    which run each one through {!Fuzzyflow.Campaign.run_instance} like any
    campaign instance; the parent derives the rest of each probe's evidence
    from the returned result. MPI disturbances (the fixed collective
    scenario against a clean reference) and the distributed-service chaos
    probes run in the parent. Every spec lands as exactly one typed outcome —
    an injected fault can never abort the campaign. The report is
    deterministic for a seed: per-spec seeds derive from the campaign seed
    and spec id, rows are emitted in catalog order, and no wall-clock data
    enters the report, so reruns and different [-j] levels produce
    byte-identical files. *)

(** What one probe reports: for a difftest probe, its instance's verdict
    and the evidence derived from it. *)
type probe_result =
  | R_verdict of {
      klass : Fuzzyflow.Difftest.failure_class option;  (** [None]: verdict was Pass *)
      first_trial : int;
      failing_trials : int;
      localized : bool option;
          (** for transform faults with a numerical failure: did localization
              name the damaged container? [None] when not applicable *)
      audit_flagged : bool option;
          (** for transform faults: did the change-set audit flag the mutated
              transform's declaration? [None] when not applicable *)
      dep_witness : (string * int) list option;
          (** for transform faults: concrete valuation from the exact
              dependence tier (the translation validator's refutation model or
              a race finding's [dep_witness]); [None] when no witness *)
      dep_confirmed : bool option;
          (** did the witness, replayed as a one-trial directed fuzz seed,
              reproduce the failure? *)
      detail : string;
    }
  | R_mpi of {
      fault : string option;  (** printed [Mpi_fault], when one surfaced *)
      data_ok : bool;  (** final data bit-identical to the clean run *)
      healed : int;
      retransmits : int;
      backoff : int;
    }
  | R_net of {
      identical : bool;
          (** the chaos campaign's journal instance lines are byte-identical
              to the same-seed serial reference *)
      first_failure : string option;
          (** the first {!Engine.Supervisor.failure_class} name the
              supervisor observed; [None] means the fault never armed *)
    }
      (** distributed-service chaos probe: a local reference campaign versus
          the same campaign with a proxied/killed remote worker added *)

type outcome =
  | Detected of { got : string; first_trial : int }
  | Missed of { detail : string }  (** the fault ran and no oracle noticed *)
  | Misclassified of { expected : string; got : string }
  | Quarantined of { detail : string }
      (** killed past every escalated deadline, or flaky across retries *)

val outcome_name : outcome -> string

type row = {
  spec : Plan.spec;
  outcome : outcome;
  attempts : int;
  localized : bool option;
  audit : bool option;  (** change-set audit verdict, [None] when not applicable *)
  dep : bool option;
      (** exact dependence channel: [Some true] — witness found and its
          directed replay reproduced the failure; [Some false] — witness found
          but not reproduced; [None] — no witness / not applicable *)
}

type report = { seed : int; trials : int; rows : row list }

(** Run one spec's probe in-process: the same instance through
    {!Fuzzyflow.Campaign.run_instance}, then the same derivation — the
    reference for what a supervised worker computes. Exposed for tests. *)
val probe_spec : trials:int -> seed:int -> Plan.spec -> probe_result

(** Score a probe result against the spec's expectation. Total: every result
    maps to exactly one outcome. *)
val classify : Plan.spec -> probe_result -> outcome

(** Run the campaign: every difftest probe on one {!Engine.Supervisor.run}
    over [j] local workers, [deadline_s] per instance; then the MPI and net
    probes in the parent. A probe that timed out or crashed (a lost worker,
    or an exception in a parent probe) is retried alone with its deadline
    doubled, and quarantined when it stays dead or flips verdicts. [level]
    restricts the catalog; [trials] is the fuzzing budget per difftest
    probe; [generated:(style, n)] extends the catalog with mutation specs
    over the first [n] admitted generated programs (see {!Plan.catalog}). *)
val run :
  ?j:int ->
  ?deadline_s:float ->
  ?trials:int ->
  ?level:Plan.level ->
  ?generated:string * int ->
  ?progress:bool ->
  seed:int ->
  unit ->
  report

type totals = {
  specs : int;
  detected : int;
  missed : int;
  misclassified : int;
  quarantined : int;
  core_total : int;  (** interp + transform specs, quarantined excluded *)
  core_detected : int;
  semantics_total : int;
  semantics_detected : int;
  mpi_total : int;
  mpi_detected : int;
  net_total : int;  (** distributed-service chaos specs, quarantined excluded *)
  net_detected : int;
  loc_checked : int;
  loc_accurate : int;
  dep_expected : int;
      (** non-quarantined subset-shift / wrong-stride transform specs — the
          mutations the exact dependence tier must catch statically *)
  dep_witnessed : int;  (** of those, a solver witness was produced *)
  dep_confirmed : int;  (** of those, the directed replay reproduced the failure *)
  extra_attempts : int;
}

val totals : report -> totals

(** Detected fraction of non-quarantined interpreter + transform specs
    (1.0 when the filtered catalog has none). *)
val detection_rate : report -> float

(** The itemized misses: rows that are [Missed] or [Misclassified]. *)
val misses : report -> row list

(** The gate: [detection_rate >= floor] (default 0.95); with
    [require_semantics] every [Must_semantics] spec must be [Detected] —
    quarantine does not excuse a semantics obligation; with [require_deps]
    every subset-shift / wrong-stride transform spec must yield an exact
    dependence witness whose directed replay reproduces the failure. *)
val passed : ?floor:float -> ?require_semantics:bool -> ?require_deps:bool -> report -> bool

(** Human-readable per-spec listing and summary. *)
val render : report -> string

(** Deterministic JSONL report: header, one line per spec in catalog order,
    totals footer. No timing data — byte-identical across reruns and [-j]. *)
val to_jsonl : report -> string
