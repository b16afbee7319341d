(** Change-set audit: declared Δ_T versus the true pre/post graph diff.

    Cutout extraction (paper Sec. 3 step 2) builds the test subprogram from
    the scope closure of the transformation's declared change set. If the
    recomputed diff ({!Sdfg.Diff.compute}) contains a node outside that
    closure — or a control-flow change in an undeclared state — the
    transformation modified program parts its cutout would not cover, and
    localized testing would silently compare the wrong subprogram. Every
    escape is therefore a definite ([Error]) finding.

    Over-declaration is never flagged: a too-large change set only costs
    cutout size, not soundness. *)

open Sdfg

(** Audit an already-applied transformation: [declared] is what [apply]
    returned, [original]/[transformed] the graphs before and after. *)
val check :
  original:Graph.t -> transformed:Graph.t -> declared:Diff.change_set -> Report.finding list

(** Apply [x] at [site] with {!Transforms.Xform.apply_copy} and audit the
    copy; [None] when that gives [Error]. *)
val check_xform :
  Graph.t -> Transforms.Xform.t -> Transforms.Xform.site -> Report.finding list option
