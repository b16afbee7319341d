(** Content-keyed tables of static analysis results.

    The static delta analyzes two programs per instance that differ only in
    the states the transformation changed, and a pipeline analyzes program
    versions one step apart. These tables keep results whose inputs are one
    state, or one query, under keys computed from that content, so a state
    both programs share is analyzed once:

    - {b checks}: one state's race and bounds findings with their
      {!Races.stats}. Key: the analysis context's canonical print
      ({!Context.to_string}), the [carried] flag, the container table and
      the state's content (its id, label, nodes and edges). An interstate
      edit changes the interval facts, so the context part misses for
      every state.
    - {b accesses}: one state's {!Sdfg.Propagate.state_accesses}. Key: the
      container table and the state's content. They do not depend on
      symbol bounds, so one entry serves every summary of the state.
    - {b deps}: one exact dependence query ({!Deps.memo}): the race
      check's {!Deps.overlap}, the coverage check's {!Deps.uncovered} and
      {!Equiv.decide}'s set comparisons and witness searches. Key: the
      query's subsets and everything else its answer depends on (pinned
      values, interval bounds, parameter ranges, primed names), so the
      same query asked in another scope, state, program or copy hits.

    Apart from the context's print, keys are structural values compared
    with [compare]: a state's nodes and edges and the container
    descriptors are the graph's own values, which a copy shares, so
    building and comparing a key is cheap and no state is printed. Keys
    come from content, never from the change set a transformation
    declared, so a wrong declaration cannot serve a stale result. A
    computation that raises stores nothing. Each table is an
    {!Sdfg.Memo}: it holds at most a constant number of entries and is
    emptied wholesale when full. The
    tables live as long as the value that holds them; there is no
    process-global table. {!Certificate.check} never uses one, so an
    [Equivalent] certificate is re-checked from scratch.

    The value also holds one per-program table of ['b]: the static delta
    keeps its unchanged program's half there ({!Delta.memo}). Its key is the
    whole program's content (name, symbols, containers, states, interstate
    edges and start state) and the sorted concretization, so a rebuilt or
    wire-decoded copy hits. *)

open Sdfg

type 'b t

val create : unit -> 'b t

(** [baseline m ~symbols g f] is [f ()], the per-program result for [g]
    under [symbols], served from [m]'s per-program table. *)
val baseline : 'b t -> symbols:(string * int) list -> Graph.t -> (unit -> 'b) -> 'b

(** [(hits, misses)] of each table since creation; a miss computes. *)
type stats = {
  baselines : int * int;
  checks : int * int;
  accesses : int * int;
  deps : int * int;
}

val stats : _ t -> stats

(** [checks memo ~carried ctx g f] is [f], the per-state race and bounds
    check of [g] under [ctx], served from [memo] when given. *)
val checks :
  _ t option ->
  carried:bool ->
  Context.t ->
  Graph.t ->
  (int -> State.t -> Report.finding list * Races.stats) ->
  int ->
  State.t ->
  Report.finding list * Races.stats

(** [accesses memo g] is [fun _ st -> Propagate.state_accesses g st],
    served from [memo] when given; its argument order fits
    {!Sdfg.Propagate.summarize}'s [~accesses]. *)
val accesses : _ t option -> Graph.t -> int -> State.t -> Propagate.access list

(** [deps memo] is [memo]'s dependence query table, for the [?memo] of
    the {!Deps} query functions. *)
val deps : _ t option -> Deps.memo option
