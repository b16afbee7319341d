(** Live campaign progress: instances/sec, per-worker status, trials spent
    and saved, rendered to stderr while the engine runs and summarized for
    the journal footer. The progress line, the snapshot and the footer all
    read the {!Fuzzyflow.Campaign.tally} of every outcome recorded or
    resumed, so they count as the campaign table does; [failed] is failing
    verdicts plus killed instances there, as on the table's total line. *)

type t

val create : ?progress:bool -> total:int -> j:int -> unit -> t

(** A worker slot picked up an instance. *)
val running : t -> slot:int -> string -> unit

(** A worker slot went idle. *)
val idle : t -> slot:int -> unit

(** An instance completed (any status); its outcome joins the tally. *)
val record : t -> Fuzzyflow.Campaign.outcome -> unit

(** A failing instance's test case was persisted to the corpus. *)
val case_saved : t -> unit

(** An instance was satisfied from the journal instead of being re-fuzzed:
    its replayed outcome joins the tally like a recorded one, but the rate
    ([instances_per_s]) counts only the instances this process ran. *)
val resumed : t -> Fuzzyflow.Campaign.outcome -> unit

(** A worker failed and will be reconnected (remote, with backoff) or
    respawned (local). *)
val retry : t -> unit

(** A remote worker was quarantined after repeated failures. *)
val quarantine : t -> unit

(** A worker was lost (disconnect or hang) mid-instance; the instance was
    requeued, or settled as [Crashed] once it had lost too many. *)
val lost_worker : t -> unit

(** [recovered_records t n]: [n] torn tail records were truncated on resume. *)
val recovered_records : t -> int -> unit

(** Live counters as JSON — the service's HTTP telemetry payload. *)
val snapshot : t -> Journal.Json.t

(** One-line status snapshot (also what [record] prints to stderr). *)
val render : t -> string

(** Totals for the journal footer. *)
val summary : t -> Journal.footer

(** Wall-clock seconds since [create]. *)
val wall_s : t -> float

(** Final newline so the in-place progress line is not overwritten. *)
val finish : t -> unit
