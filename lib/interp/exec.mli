(** SDFG interpreter.

    Replaces DaCe's C++ code generation for this repository: runs a graph to
    completion over concrete symbol values and input arrays, producing the
    final memory image, an execution-coverage set (for coverage-guided
    fuzzing, Sec. 5.1) and precise fault signals — out-of-bounds accesses,
    step-limit "hangs" and invalid-graph conditions — that differential
    testing classifies (Sec. 5).

    Execution has two tiers with bit-identical observable semantics:

    - {!run_tree} — the reference tree-walk ({!Tree}), re-deriving all
      structure per run; the differential baseline.
    - {!run} — compile-once closure plans ({!Plan}); the one compiled tier,
      which every trial loop runs on.

    Plans prove most hangs instead of burning the step limit
    ({!Hang_proof}): a run whose control cannot depend on data and that
    enters the same state with the same symbol values twice never ends, so
    the step counter skips whole periods. The tree-walk never proves, and a
    reported {!fault.Hang} carries the full run's step count on both tiers,
    whether the hang was proved or burned.

    [run] is the one-shot interface: it admits the graph, compiles a plan
    and runs it once. Loops that execute the same graph many times (the
    difftest trial loop, the fuzzer) should instead admit each graph once
    ({!Sdfg.Validate.admit}), lower it once ([Plan.compile v]), bind each
    symbol valuation to that lowering, as [Fuzzyflow.Difftest.sweep] does,
    and call {!Plan.execute} per trial.

    Both tiers validate a graph before running it, and neither re-checks
    at run time what validation guarantees (see {!Plan}): a graph that
    fails gives [Invalid_graph] with its first validation error. *)

type fault = Defs.fault =
  | Out_of_bounds of { container : string; index : int array; shape : int array; context : string }
  | Hang of { steps : int }
      (** step limit exceeded; [steps] is the count at the tick that crossed
          the limit, the same whether the hang was proved or run out *)
  | Invalid_graph of string  (** the "generates invalid code" failure class *)
  | Runtime_error of string

val pp_fault : Format.formatter -> fault -> unit
val fault_to_string : fault -> string

(** Deterministic fault injection (faultlab level 1). A plan names an
    execution-order site — the nth container write, the nth concretized
    memlet subset, a step count — not a graph location, so the same plan
    injects at the same place on every run of a program over the same
    inputs. The self-validation campaign uses these to prove the
    differential tester catches interpreter-level corruption. *)
type injection = Defs.injection =
  | Flip_bit of { nth_write : int; bit : int }
      (** XOR IEEE-754 bit [bit] into the first value of write [nth_write] *)
  | Set_nan of { nth_write : int }  (** write a NaN instead *)
  | Set_inf of { nth_write : int }  (** write +inf instead *)
  | Shift_index of { nth_subset : int; delta : int }
      (** shift the first dimension of the nth concretized memlet subset by
          [delta] elements (an off-by-[delta] index computation); scalar
          subsets carry no index computation and are not counted *)
  | Burn_steps of { after : int }
      (** once [after] steps have run, burn the remaining step budget so the
          run surfaces as a {!fault.Hang} *)

val injection_to_string : injection -> string

type config = Defs.config = {
  step_limit : int;  (** abort as a hang beyond this many execution steps *)
  garbage_seed : int;  (** seed for deterministic GPU garbage allocation *)
  collect_coverage : bool;
  inject : injection option;  (** deterministic fault to inject, if any *)
}

val default_config : config

type outcome = Defs.outcome = {
  memory : Value.t;  (** final contents of every container *)
  coverage : int list;  (** sorted coverage-point digests *)
  steps : int;  (** total execution steps consumed *)
  writes : int;  (** container write operations performed (injection sites) *)
  subsets : int;  (** dimensioned memlet subsets concretized (injection sites) *)
}

(** [run g ~symbols ~inputs] admits [g], compiles a plan for the
    valuation and executes it. All free symbols must be bound in [symbols].
    [inputs] initializes non-transient containers; missing ones are
    zero-filled, and each provided array must match the concretized element
    count. *)
val run :
  ?config:config ->
  Sdfg.Graph.t ->
  symbols:(string * int) list ->
  inputs:(string * float array) list ->
  (outcome, fault) result

(** The reference tree-walk interpreter: identical observable semantics to
    {!run}, re-deriving all structure per run. Kept as the differential
    baseline and the slow side of [bench interp]. *)
val run_tree :
  ?config:config ->
  Sdfg.Graph.t ->
  symbols:(string * int) list ->
  inputs:(string * float array) list ->
  (outcome, fault) result
