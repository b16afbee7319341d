(** The campaign work queue: every (program, transformation, site) instance,
    enumerated in the same deterministic order as the serial
    {!Fuzzyflow.Campaign.run} loop, each with a stable identity and
    everything a worker needs to run it through
    {!Fuzzyflow.Campaign.run_instance}. Selfcheck builds its difftest probes
    as items too. *)

type item = {
  id : string;  (** {!Fuzzyflow.Campaign.instance_id} — the journal key *)
  program_name : string;
  program : Sdfg.Graph.t;
  xform : Transforms.Xform.t;
  site : Transforms.Xform.site;
  config : Fuzzyflow.Difftest.config;
      (** the instance's config, its per-instance seed
          ({!Fuzzyflow.Campaign.instance_seed}) already substituted *)
  static_gate : bool;
  certify_gate : bool;
}

(** [build ~config ~static_gate ~certify_gate programs xforms] enumerates
    every application site of every transformation on every program
    (transformations outermost, matching the serial campaign loop), each
    item under [config] with its own seed and the campaign's gates.
    [limit_per] caps sites per (program, xform) pair. *)
val build :
  ?limit_per:int option ->
  config:Fuzzyflow.Difftest.config ->
  static_gate:bool ->
  certify_gate:bool ->
  (string * Sdfg.Graph.t) list ->
  Transforms.Xform.t list ->
  item list
