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
      the transformed program is admitted ({!Sdfg.Validate.admit}; equal
      summaries say nothing about well-formed code). The certificate
      re-checks independently ({!Certificate.check}).
      {b Sound to act on}: the pipeline may skip fuzz trials.
    - [Refuted w] — a definite dataflow difference with a concrete symbol
      valuation (and, when the exact dependence engine finds one at the
      reference valuation, {!Deps.difference_witness}, one element of the
      symmetric set difference). The valuation seeds the fuzzer; a spurious
      refutation costs only trials that would have run anyway.
    - [Unknown] — a transformed program that fails validation (the reason
      names its first error; nothing is analyzed), or the analysis could
      not decide (unpropagated control-flow symbols, ordering changes with
      equal sets, or a transformation marked
      {!Transforms.Xform.Known_unsound} whose summaries nevertheless match —
      the hint vetoes certification, never the other verdicts).

    For a copy that validates, a transformation-introduced static finding —
    any error, or a race at any severity — refutes before the summaries are
    compared. Those
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

    The exact dependence engine ({!Deps}) matches summaries whose linear
    normal forms differ when both difference directions are provably empty
    (tile-boundary [min]/[max] redundancy), gives the refutation witnesses,
    and waives per-container order changes when reads are provably disjoint
    from writes.

    [memo] serves the unchanged program's half of the static delta and
    the per-state results both programs share ({!Delta.memo}); a caller
    certifying many sites of one program passes the same memo to every
    call. Without one, the call makes its own. Verdicts do not depend on
    it. *)
val certify :
  ?use_intervals:bool ->
  ?memo:Delta.memo ->
  ?symbols:(string * int) list ->
  Sdfg.Graph.t ->
  Transforms.Xform.t ->
  Transforms.Xform.site ->
  verdict option

(** [decide ~symbols ~delta g copy x site] is {!certify}'s verdict for an
    instance the caller already applied, admitted and analyzed: [copy] is
    the admission ({!Sdfg.Validate.admit}) of the copy [g']
    {!Transforms.Xform.apply_copy} returned for [x] at [site] on [g], and
    [delta] the findings of [Delta.between g copy] under [symbols]. A copy
    that failed admission is [Unknown], and the reason names its first
    validation error. With
    [memo], the two summaries take their per-state accesses from its
    tables, where the delta's own analysis of both programs left them, and
    the exact engine's set comparisons and witness searches take the
    answers of queries asked before from its query table ({!Deps.memo});
    the joins and the comparison always run. The certificate's own
    re-check ({!Certificate.check}) never uses the memo. *)
val decide :
  ?use_intervals:bool ->
  ?memo:Delta.memo ->
  symbols:(string * int) list ->
  delta:Report.finding list ->
  Sdfg.Graph.t ->
  (Sdfg.Validate.valid, Sdfg.Validate.error) result ->
  Transforms.Xform.t ->
  Transforms.Xform.site ->
  verdict
