(** The campaign engine's entry point, and the fork pool that runs
    self-validation probes.

    {!run_campaign} runs every fresh instance through {!Supervisor.run}:
    [j] local wire-protocol workers forked once per campaign, plus any
    remote endpoints, all on one dispatch loop.

    {!map_pool} and {!supervise} run arbitrary closures — selfcheck's
    interpreter, MPI and chaos-campaign probes, which are not wire
    assignments — each in a [Unix.fork]ed child: a child past its deadline
    is SIGKILLed and recorded as [Timed_out]; a child that dies without
    reporting becomes [Crashed]. Results travel back through a per-child
    temp file (Marshal), so an arbitrarily large result never deadlocks a
    pipe. *)

(** Why a supervised child produced no value. *)
type failure =
  | Timed_out of { deadline_s : float }
  | Crashed of { detail : string }

(** Read and delete a child's marshalled result file. [`Missing] when the
    file cannot be opened or is empty (the child died before writing),
    [`Corrupt] when Marshal rejects its contents (a torn write); the pool
    maps both to [Crashed] rather than raising. Exposed for tests. *)
val read_result : string -> [ `Result of ('a, string) result | `Missing | `Corrupt ]

(** [supervise ~deadline_s f] runs [f ()] in a forked child and waits:
    [Ok v] if the child finished in time, [Error] otherwise. The synchronous
    single-job version of the pool — also its unit-testable core. *)
val supervise : deadline_s:float -> (unit -> 'a) -> ('a, failure) result

(** [map_pool ~j ~deadline_s thunks] runs every thunk in a forked child, at
    most [j] alive at once, killing any child past [deadline_s]. Results are
    in input order. [on_done i r] fires as each thunk settles (completion
    order). The reap loop sleep-waits on a SIGCHLD self-pipe (bounded by the
    nearest child deadline), so an idle or blocked pool does not burn a
    core. *)
val map_pool :
  j:int ->
  deadline_s:float ->
  ?on_done:(int -> ('a, failure) result -> unit) ->
  (unit -> 'a) array ->
  ('a, failure) result array

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
