(** Symbolic translation validation of transformation instances.

    [certify g x site] decides whether applying [x] at [site] provably
    preserves the program's externally visible dataflow, by comparing the
    fully propagated read sets, write sets and per-container access-order
    signatures ({!Sdfg.Propagate.summarize}) of the program before and after
    the transformation, under the assumption that every declared program
    symbol is at least 1.

    The verdict lattice:

    - [Equivalent cert] — every external container's propagated read and
      write set is symbolically equal pre/post, write-conflict-resolution
      targets agree, every surviving container keeps its access order, and
      the transformed program passes {!Sdfg.Validate.check} (equal
      summaries say nothing about well-formed code). The certificate
      re-checks independently ({!Certificate.check}).
      {b Sound to act on}: the pipeline may skip fuzz trials.
    - [Refuted w] — a definite dataflow difference with a concrete symbol
      valuation (and, when element enumeration succeeds, one element of the
      symmetric set difference). The valuation seeds the fuzzer; a spurious
      refutation costs only trials that would have run anyway.
    - [Unknown] — the analysis could not decide (unpropagated control-flow
      symbols, ordering changes with equal sets, a transformed program
      that fails validation although its summaries match, or a
      transformation marked {!Transforms.Xform.Known_unsound} whose
      summaries nevertheless match — the hint vetoes certification, never
      the other verdicts).

    A transformation-introduced static finding — any error, or a race at
    any severity — refutes before the summaries are compared. Those
    findings are the static delta ({!Delta}), the same one the static gate
    reports, so a caller running both gates computes it once and hands it
    to {!decide}.

    [None] means the transformation did not apply: its
    {!Transforms.Xform.apply_copy} gave [Error]. *)

type witness = {
  valuation : (string * int) list;  (** concrete symbol values exhibiting the difference *)
  container : string;
  element : int list option;  (** one element of the symmetric set difference *)
  reason : string;
}

type verdict = Equivalent of Certificate.t | Refuted of witness | Unknown of string

val verdict_name : verdict -> string
val pp_witness : Format.formatter -> witness -> unit
val pp_verdict : Format.formatter -> verdict -> unit

(** [use_intervals] (default [true]) lets the {!Intervals} fixpoint admit
    interstate-assigned symbols into the summary comparison when the
    transformation provably leaves the interstate CFG untouched: such a
    symbol runs through the same value sequence on both sides, so it may be
    treated as an opaque bounded parameter. Disabling it reproduces the
    seed behaviour (those summaries stay [Unknown]); the [bench analysis]
    scenario measures the verdicts upgraded by this flag.

    [use_deps] (default [true]) enables the exact dependence engine
    ({!Deps}): summaries whose linear normal forms differ are still matched
    when both difference directions are provably empty (tile-boundary
    [min]/[max] redundancy), refutation witnesses come from a verified
    Fourier–Motzkin model before any grid enumeration, and per-container
    order changes are waived when reads are provably disjoint from writes.
    Disabling it reproduces the PR 6 behaviour; [bench deps] and
    [bench analysis] measure the verdicts this tier upgrades.

    [memo] serves the unchanged program's half of the static delta and
    the per-state results both programs share ({!Delta.memo}); a caller
    certifying many sites of one program passes the same memo to every
    call. Without one, the call makes its own. Verdicts do not depend on
    it. *)
val certify :
  ?use_intervals:bool ->
  ?use_deps:bool ->
  ?memo:Delta.memo ->
  ?symbols:(string * int) list ->
  Sdfg.Graph.t ->
  Transforms.Xform.t ->
  Transforms.Xform.site ->
  verdict option

(** [decide ~symbols ~delta g g' x site] is {!certify}'s verdict for an
    instance the caller already applied and analyzed: [g'] is the copy
    {!Transforms.Xform.apply_copy} returned for [x] at [site] on [g], and
    [delta] the findings of [Delta.between g g'] under [symbols]. With
    [memo], the two summaries take their per-state accesses from its
    tables, where the delta's own analysis of both programs left them, and
    the exact engine's set comparisons and witness searches take the
    answers of queries asked before from its query table ({!Deps.memo});
    the joins and the comparison always run. The certificate's own
    re-check ({!Certificate.check}) never uses the memo. *)
val decide :
  ?use_intervals:bool ->
  ?use_deps:bool ->
  ?memo:Delta.memo ->
  symbols:(string * int) list ->
  delta:Report.finding list ->
  Sdfg.Graph.t ->
  Sdfg.Graph.t ->
  Transforms.Xform.t ->
  Transforms.Xform.site ->
  verdict
