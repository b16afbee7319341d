(** Compile-once execution plans: the one compiled tier. Every difftest
    and fuzzer trial runs on a plan.

    [compile] lowers an admitted graph ({!Sdfg.Validate.valid}) once into a
    flat plan: topological order and
    scope nesting resolved per graph, each tasklet compiled to one flat
    instruction array over its float registers (reads, one instruction per
    code node, writes), memlet subsets and map ranges compiled to closures,
    tasklet point and scalar memlets addressing their buffers in place
    (straight-line code for points affine in the map parameters),
    containers addressed by dense ids, and every symbol that is not a map
    parameter read from a run-time slot. Binding a valuation to the
    lowering gives a plan. [execute] runs the plan over fresh buffers; a
    plan may be executed any number of times, under any {!Defs.config}
    (step limits, fault injection and coverage collection are all
    execution-time concerns), but plans bound from one lowering must not
    run at once: the lowering's tasklet registers, select counters and
    index scratch are per-run state. Nothing in lib runs two plans at once:
    it starts no domains or threads.

    A plan does not re-check at run time what admission guarantees:
    declared containers, library connectors, one range per map parameter,
    written tasklet connectors, and host storage inside GPU scopes. The
    faults it raises are those validation cannot decide: out-of-bounds
    accesses, hangs, unbound symbols and references, tasklet memlets of
    volume other than 1, library shapes and axes, and shape faults.

    Semantics are bit-identical to the reference tree-walk ({!Tree.run}):
    same final memory, step counts, injection counters, coverage digests and
    fault messages. A hanging run is usually proved rather than run to its
    step limit ({!Hang_proof}), with the same [Hang { steps }] as the full
    run. test/test_plan.ml holds the differential obligation. *)

type t

(** [compile v ~symbols] compiles the admitted graph [v] under one
    valuation. Partial application, [compile v], lowers [v]: state order,
    scope contexts, symbol slots, code, and the names tasklets read under a
    [Select] branch; it cannot raise. Applying the result to [~symbols]
    only binds the valuation: buffer shapes (with the tree-walk's typed
    shape faults), the slots it sets, and the hang proof's precondition.
    Apply [compile v] once to run one program under many valuations; every
    plan is the one a full application would give. *)
val compile :
  Sdfg.Validate.valid -> symbols:(string * int) list -> (t, Defs.fault) result

val execute :
  ?config:Defs.config -> t -> inputs:(string * float array) list ->
  (Defs.outcome, Defs.fault) result

(** Memoizes compiled plans by (graph digest, sorted symbol valuation)
    in a {!Sdfg.Memo}: bounded, dropped wholesale when [capacity] (default
    64) distinct keys are live. Each key admits the graph and applies
    [compile] fully, lowering included; compile failures are cached too,
    and a graph that fails admission gives [Invalid_graph] with its first
    validation error. The trial loop does not use it: it lowers
    each side once per instance and binds every trial's valuation
    ([Fuzzyflow.Difftest.sweep]); this cache serves the benchmark's traced
    re-drive (bench/campaign/trials.ml). *)
module Cache : sig
  type plan = t
  type t

  val create : ?capacity:int -> unit -> t

  (** MD5 of the graph's canonical serialization
      ({!Sdfg.Serialize.to_string}). Compute once per graph and pass to
      {!compile} when the same graph is compiled under many valuations —
      re-serializing per call costs more than compiling. *)
  val digest_of : Sdfg.Graph.t -> string

  val compile :
    ?digest:string -> t -> Sdfg.Graph.t -> symbols:(string * int) list ->
    (plan, Defs.fault) result

  (** [(hits, misses)] since creation. *)
  val stats : t -> int * int
end
