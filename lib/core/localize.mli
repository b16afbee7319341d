(** Divergence localization.

    The paper's conclusion sketches this as future work: once a fault-inducing
    input is known, exploit the dataflow structure of the cutout to point at
    {e where along the dataflow path} values first diverge between the cutout
    and its transformed version — not just that the final system state
    differs.

    Both programs are run to completion on the same inputs; every container
    they share is then compared element by element with
    {!Difftest.values_match}, and divergences are ordered by the dataflow
    position of the container's first writer (states in control-flow order,
    nodes in topological order). The first entry is the earliest corrupted
    value a debugger should look at. *)

type divergence = {
  container : string;
  flat_index : int;  (** first differing flat element *)
  original : float;
  transformed : float;
  writer_order : int;  (** dataflow position of the container's first writer *)
  writer : string;  (** label of that writer node, when identifiable *)
}

val pp_divergence : Format.formatter -> divergence -> unit

(** [locate ~cutout ~transformed ~symbols ~inputs ()] runs both programs and
    returns every diverging shared container, earliest writer first. An empty
    list means the runs agree (or a run faulted — divergence localization
    needs two completed runs; use {!Difftest} for fault divergence). *)
val locate :
  ?threshold:float ->
  ?step_limit:int ->
  cutout:Cutout.t ->
  transformed:Sdfg.Graph.t ->
  symbols:(string * int) list ->
  inputs:(string * float array) list ->
  unit ->
  divergence list

(** Convenience: reconstruct the fault-inducing inputs of a failing report
    (like {!Testcase.of_report}) and localize. [None] when the report passed
    or failed without a reproducible trial. *)
val of_report :
  ?config:Difftest.config ->
  original:Sdfg.Graph.t ->
  xform:Transforms.Xform.t ->
  Difftest.report ->
  divergence list option
