(** Compile-once execution plans: the one compiled tier. Every difftest
    and fuzzer trial runs on a plan.

    [compile] lowers a graph once into a flat plan: topological order and
    scope nesting resolved per graph, tasklet code compiled to closures over
    integer-indexed registers, memlet subsets and map ranges compiled to
    closures, tasklet point and scalar memlets addressing their buffers in
    place, containers addressed by dense ids, and every symbol that is not a
    map parameter read from a run-time slot. Binding a valuation to the
    lowering gives a plan. [execute] runs the plan over fresh buffers; a
    plan may be executed any number of times, under any {!Defs.config}
    (step limits, fault injection and coverage collection are all
    execution-time concerns), but plans bound from one lowering must not
    run at once: the lowering's tasklet registers, select counters and
    index scratch are per-run state. Nothing in lib runs two plans at once:
    it starts no domains or threads.

    Semantics are bit-identical to the reference tree-walk ({!Tree.run}):
    same final memory, step counts, injection counters, coverage digests and
    fault messages. A hanging run is usually proved rather than run to its
    step limit ({!Hang_proof}), with the same [Hang { steps }] as the full
    run. test/test_plan.ml holds the differential obligation. *)

type t

(** [compile g ~symbols] compiles [g] under one valuation. Partial
    application, [compile g], validates and lowers [g]: state order, scope
    contexts, symbol slots, code, and the names tasklets read under a
    [Select] branch. Applying the result to [~symbols] only binds the
    valuation: buffer shapes (with the tree-walk's typed shape faults), the
    slots it sets, and the hang proof's precondition. Apply [compile g] once
    to run one program under many valuations; every plan is the one a full
    application would give. A graph that fails validation gives the same
    [Invalid_graph] at every valuation. *)
val compile : Sdfg.Graph.t -> symbols:(string * int) list -> (t, Defs.fault) result

val execute :
  ?config:Defs.config -> t -> inputs:(string * float array) list ->
  (Defs.outcome, Defs.fault) result

(** Memoizes compiled plans by (graph digest, sorted symbol valuation)
    in a {!Sdfg.Memo}: bounded, dropped wholesale when [capacity] (default
    64) distinct keys are live. Compile failures are cached too — a graph
    that does not validate keeps not validating. Each key is a full
    [compile], lowering included. The trial loop does not use it: it lowers
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
