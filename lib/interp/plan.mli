(** Compile-once execution plans: the one compiled tier. Every difftest
    and fuzzer trial runs on a plan.

    [compile] lowers a graph plus a symbol valuation into a flat immutable
    plan: topological order and scope nesting resolved once, tasklet code
    compiled to closures over integer-indexed registers, memlet subsets
    pre-evaluated to concrete strides wherever the valuation makes them
    constant, and containers addressed by dense ids. [execute] runs the plan
    over fresh buffers; a plan may be executed any number of times, under any
    {!Defs.config} (step limits, fault injection and coverage collection are
    all execution-time concerns).

    Semantics are bit-identical to the reference tree-walk ({!Tree.run}):
    same final memory, step counts, injection counters, coverage digests and
    fault messages. A hanging run is usually proved rather than run to its
    step limit ({!Hang_proof}), with the same [Hang { steps }] as the full
    run. test/test_plan.ml holds the differential obligation. *)

type t

val compile : Sdfg.Graph.t -> symbols:(string * int) list -> (t, Defs.fault) result

val execute :
  ?config:Defs.config -> t -> inputs:(string * float array) list ->
  (Defs.outcome, Defs.fault) result

(** Memoizes compiled plans by (graph digest, sorted symbol valuation)
    in a {!Sdfg.Memo}: bounded, dropped wholesale when [capacity] (default
    64) distinct keys are live. Compile failures are cached too — a graph
    that does not validate keeps not validating. The trial loop keeps its
    own per-instance tables ([Fuzzyflow.Difftest.sweep]); this cache
    serves the benchmark's traced re-drive (bench/campaign/trials.ml). *)
module Cache : sig
  type plan = t
  type t

  val create : ?capacity:int -> unit -> t

  (** {!Sdfg.Memo.digest_of}. Compute once per graph and pass to
      {!compile} when the same graph is compiled under many valuations —
      re-serializing per call costs more than compiling. *)
  val digest_of : Sdfg.Graph.t -> string

  val compile :
    ?digest:string -> t -> Sdfg.Graph.t -> symbols:(string * int) list ->
    (plan, Defs.fault) result

  (** [(hits, misses)] since creation. *)
  val stats : t -> int * int
end
