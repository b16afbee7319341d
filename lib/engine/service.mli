(** The distributed campaign daemon and its submitting client.

    [serve] accepts {!Wire.Submit} messages on a control socket, runs each
    submission as one campaign — dispatching instances to its local workers
    and the configured remote workers on one {!Supervisor.run} loop — and
    streams every journal line back to the submitter as it is flushed. An optional HTTP/1.0 endpoint serves live
    JSON telemetry ([/telemetry]) and the current journal ([/journal]);
    it is polled from inside the running campaign via the supervisor's
    [tick] hook, so it stays live mid-campaign.

    Campaign verdicts are byte-identical to a local [-j 1] run of the same
    submission: seeds derive from (instance, campaign seed) only, and the
    journal is flushed in queue order. *)

type config = {
  port : int;  (** control port; [0] picks an ephemeral one *)
  http_port : int option;  (** telemetry endpoint; [None] disables it *)
  workers : Supervisor.endpoint list;  (** remote workers; empty: local slots only *)
  policy : Supervisor.policy;
  j : int;  (** local worker processes per campaign *)
  deadline_s : float;  (** per-instance wall-clock budget *)
  journal_dir : string;  (** journals land here as campaign-NNN.jsonl *)
  corpus_dir : string option;
  max_campaigns : int option;  (** exit after this many submissions (tests) *)
  log : string -> unit;  (** operational log lines (default: stderr) *)
}

val default_config : config

(** Run the daemon until a {!Wire.Shutdown} arrives (or [max_campaigns] is
    reached). [resolve] maps a workload name to its graph; [catalog_of] maps
    the submission's [s_correct] flag to the transformation catalog. Prints a
    parseable ["service: listening ..."] ready line on stdout. *)
val serve :
  ?config:config ->
  resolve:(string -> Sdfg.Graph.t option) ->
  catalog_of:(bool -> Transforms.Xform.t list) ->
  unit ->
  unit

(** Submit a campaign and stream it: [on_line] receives each journal line
    as the service flushes it. Returns the rendered campaign table on
    success ([None] if the service never sent one), or a human-readable
    error. [timeout_s] bounds the silence between messages, not the whole
    campaign. *)
val submit :
  ?timeout_s:float ->
  host:string ->
  port:int ->
  ?on_line:(string -> unit) ->
  Wire.submission ->
  (string option, string) result

(** Ask a daemon to exit; [true] if it acknowledged. *)
val shutdown : host:string -> port:int -> bool
