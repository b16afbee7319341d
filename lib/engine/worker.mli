(** The campaign engine's entry point.

    {!run_campaign} enumerates the {!Queue}, replays journaled outcomes on
    [--resume], and runs every fresh instance through {!Supervisor.run}: [j]
    local wire-protocol workers forked once per campaign, plus any remote
    endpoints, all on one dispatch loop. It journals outcomes in queue
    order, saves failing cases to the corpus and assembles the Table 2
    summary. Selfcheck's difftest probes run on the same {!Supervisor.run}.
    This module forks nothing itself. *)

(** Inert: trials run one at a time, and {!run_campaign} ignores
    [options.batching]. Kept only because the benchmark's workloads and
    re-drive (bench/campaign) name it; it leaves with them. *)
type batching = Inherit | Fixed of int | Auto

(** [min 64 (max 1 trials)]. Kept only for the benchmark's re-drive, like
    {!batching}. *)
val auto_batch : trials:int -> int

type options = {
  j : int;  (** local worker processes (at least 1), forked once per campaign *)
  deadline_s : float;  (** per-instance wall-clock budget *)
  journal_path : string option;  (** None: no journaling (and no resume) *)
  resume : bool;  (** skip instances already in the journal *)
  corpus_dir : string option;  (** save failing cases here, deduplicated *)
  progress : bool;  (** live telemetry on stderr *)
  limit_per : int option;
  static_gate : bool;
  certify_gate : bool;
  workers : Supervisor.endpoint list;  (** remote workers: extra slots on the same loop *)
  policy : Supervisor.policy;
  on_failure : string -> Supervisor.failure_class -> unit;
      (** observes every classified worker failure (tests, chaos probes) *)
  tick : unit -> unit;
      (** polled on every dispatch iteration (the service's HTTP endpoint
          piggybacks on it) *)
  journal_sink : (string -> unit) option;
      (** observes every journal line as it is flushed (streaming clients,
          chaos hooks); fires even when [journal_path] is [None] *)
  on_telemetry : (Telemetry.t -> unit) option;
      (** receives the live telemetry handle once, before execution starts
          (the service's HTTP endpoint reads it) *)
  batching : batching;  (** inert, see {!batching} *)
}

val default_options : options

(** Run a campaign through the engine: enumerate the queue, execute every
    instance not already journaled on the supervised workers, journal
    outcomes in queue order (so same-seed reruns are bit-identical and an
    interrupted journal is a clean prefix), persist failing cases to the
    corpus, and assemble the Table 2 summary from engine outcomes. Workers
    resolve transformations by name in [xforms]; [catalog] (default
    [xforms]) resolves them for corpus reproduction checks.

    Verdicts are identical for any [j], any remote worker topology — and the
    serial {!Fuzzyflow.Campaign.run} — because per-instance seeds derive
    from the campaign seed and instance identity only.

    @raise Invalid_argument when two programs or two transformations share
    a name, or on resume from a journal written under another seed.
    @raise Journal.Corrupt on resume from a journal with mid-file (non-tail)
    corruption; a torn tail is truncated and counted in the footer instead. *)
val run_campaign :
  ?options:options ->
  ?config:Fuzzyflow.Difftest.config ->
  ?catalog:Transforms.Xform.t list ->
  (string * Sdfg.Graph.t) list ->
  Transforms.Xform.t list ->
  Fuzzyflow.Campaign.t
