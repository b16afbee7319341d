(** Crash-tolerant supervision of campaign workers, local and remote.

    {!run} dispatches every instance over the {!Wire} protocol to [j] local
    workers, forked once per campaign on socketpairs, and to any remote
    endpoints ([fuzzyflow_cli worker]). Both kinds run the same code per
    connection: a version handshake, then assignments, each run in-process
    under an alarm deadline. The one piece of worker state kept across
    assignments is the static delta's memo ({!Analysis.Delta.memo}): each
    program's baseline and the per-state results its transformed copies
    share; compiled programs live inside each instance.
    A local worker replies [Timed_out] and ends its process at the
    deadline, so no code in an instance can catch it. The dispatcher owns
    heartbeats, deadline overruns, requeue and a typed failure taxonomy. A
    failed remote worker backs off (jitter derived from the instance seed)
    and is quarantined after repeated failures; a failed local worker is
    SIGKILLed, reaped and respawned, so the local slots always finish the
    campaign. An instance that has lost
    [max_failures] local workers settles as [Crashed] with a fixed detail.

    Verdicts depend only on (instance, seed) and the memo is
    verdict-oblivious, so any topology, and any failure schedule that loses
    fewer than [max_failures] local workers on one instance, yields journal
    instance lines byte-identical to [-j 1]. *)

type endpoint = { host : string; port : int }

val endpoint_to_string : endpoint -> string

(** Parse ["host:port"] (empty host means loopback).
    @raise Invalid_argument on a malformed endpoint. *)
val endpoint_of_string : string -> endpoint

(** The typed failure taxonomy. Every worker failure is classified as one of
    these; none of them ever becomes an instance verdict — verdicts only come
    from a live worker's reply (or the poison-instance rule above). *)
type failure_class =
  | Connect_refused of { detail : string }
  | Version_mismatch of { ours : int; theirs : int }
  | Disconnected of { during : string }  (** mid-instance, idle, handshake, assign *)
  | Decode_failure of { detail : string }  (** corrupt frame or nonsense reply *)
  | Hang of { waited_s : float }  (** no progress past heartbeat/deadline+grace *)

val failure_class_name : failure_class -> string

type policy = {
  connect_timeout_s : float;  (** connect + handshake budget *)
  heartbeat_s : float;  (** idle ping interval, and pong / frame-read budget *)
  hang_grace_s : float;  (** slack past the instance deadline before [Hang] *)
  max_failures : int;
      (** consecutive failures before a remote worker is quarantined, and
          local worker losses before an instance settles as [Crashed] *)
  backoff_base_s : float;
  backoff_max_s : float;
}

val default_policy : policy

(** [backoff_delay ~policy ~ep ~failures ~seed]: bounded exponential backoff
    with deterministic FNV-1a jitter. Exposed for tests. *)
val backoff_delay : policy:policy -> ep:endpoint -> failures:int -> seed:int -> float

(** Run [items] to completion on [j] (at least 1) local workers plus one
    slot per remote endpoint, remote slots first in assignment order. Each
    item carries its own config and gates, so one call can mix campaign
    instances and selfcheck probes; every item runs under [deadline_s].
    [on_done i r] fires once per item (completion order, [i] indexes
    [items]); [Error] carries [Timed_out] or [Crashed]. [on_failure] sees
    every classified worker failure, naming the worker ["host:port"] or
    ["local#N"]. [catalog] resolves transformation names in local workers.
    [tick] is polled on every loop iteration (the service's HTTP endpoint
    piggybacks on it).
    @raise Unix.Unix_error when a local worker cannot be forked. *)
val run :
  policy:policy ->
  on_failure:(string -> failure_class -> unit) ->
  tick:(unit -> unit) ->
  workers:endpoint list ->
  j:int ->
  catalog:Transforms.Xform.t list ->
  deadline_s:float ->
  telemetry:Telemetry.t ->
  on_done:
    (int -> (Fuzzyflow.Campaign.instance_result, Fuzzyflow.Campaign.exec_status) result -> unit) ->
  Fuzzyflow.Campaign.item array ->
  unit

(** Bind + listen (see {!Wire.listen_on}); [port = 0] picks an ephemeral
    port, returned alongside the socket. *)
val listen_on : ?host:Unix.inet_addr -> port:int -> unit -> Unix.file_descr * int

(** Run one assignment in-process under an alarm-based deadline with a
    fresh memo, and build the reply. Verdicts are memo-oblivious,
    so the reply is the same bytes a warm worker would send. Exposed for
    tests. *)
val run_assignment : catalog:Transforms.Xform.t list -> Wire.assignment -> Wire.message

(** Run assignments in order on one memo, as a remote worker does (the
    deadline raises), pairing each reply with the [(hits, misses)] of the
    memo's baseline table after it. A [Timed_out] or [Crashed] assignment leaves
    a fresh memo behind. Exposed for tests. *)
val run_assignments :
  catalog:Transforms.Xform.t list -> Wire.assignment list -> (Wire.message * (int * int)) list

(** The remote worker's accept loop: serve each connection (handshake, then
    assignments until the peer disconnects) with one memo for the whole
    process; transformations are resolved by registry name in
    [catalog]. [once] exits after the first connection closes (tests). Runs
    forever otherwise — fork it, or dedicate the process to it. *)
val serve_worker : ?once:bool -> catalog:Transforms.Xform.t list -> Unix.file_descr -> unit
