(** Append-only JSONL campaign journal.

    One line per record: a header describing the campaign configuration,
    one instance record per completed (program, transformation, site)
    instance, and a footer with campaign totals. Instances are flushed in
    queue order, so a journal is a deterministic prefix of the campaign and
    same-seed reruns produce bit-identical files; [--resume] replays the
    journaled outcomes and only executes what is missing. *)

(** Minimal JSON representation — enough for the journal and corpus
    metadata; no external dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string

  (** @raise Failure on malformed input. *)
  val of_string : string -> t

  (** Object field access; @raise Failure when missing or mistyped. *)
  val mem : t -> string -> t option

  val str : t -> string
  val num : t -> float
  val int : t -> int
  val bool : t -> bool
  val arr : t -> t list

  (** [field_str o k], etc.: typed field accessors with defaults. *)
  val field : t -> string -> t
end

(** Site encoding shared with corpus metadata. *)
val json_of_site : Transforms.Xform.site -> Json.t

val site_of_json : Json.t -> Transforms.Xform.site

type header = {
  seed : int;
  trials : int;
  j : int;
  deadline_s : float;
  programs : string list;
  xforms : string list;
}

type footer = {
  total : int;
  failed : int;
  proved : int;
  killed : int;
  trials_spent : int;
  wall_s : float;
  instances_per_s : float;
  retries : int;  (** worker failures that led to a retry/reconnect *)
  quarantined : int;  (** remote workers quarantined after repeated failures *)
  worker_lost : int;  (** mid-instance worker losses (disconnect or hang) *)
  recovered_records : int;  (** torn tail records truncated during resume *)
}

type record =
  | Header of header
  | Instance of Fuzzyflow.Campaign.outcome
  | Footer of footer

val header_line : header -> string
val instance_line : Fuzzyflow.Campaign.outcome -> string
val footer_line : footer -> string

(** @raise Failure on a malformed line. *)
val parse_line : string -> record

(** Mid-file (non-tail) corruption found during {!load_resume}: the journal
    was damaged by something other than a kill mid-write, so resuming from it
    could silently skip or re-run work. *)
exception Corrupt of { path : string; lineno : int; detail : string }

type loaded = { records : record list; recovered_records : int }

(** Resume-grade load with torn-tail recovery. A single unparseable record in
    the file's final line is a torn write from a killed campaign: it is
    counted in [recovered_records] and physically truncated from the file,
    or, with [repair = false], left on disk. [warn] reports it as truncated
    or as ignored, by which of the two happened. Any unparseable
    record {e before} the final line raises {!Corrupt}. Missing file yields
    no records. *)
val load_resume : ?warn:(string -> unit) -> ?repair:bool -> string -> loaded

(** The journaled instance outcomes keyed by instance id, in file order. *)
val completed : record list -> (string * Fuzzyflow.Campaign.outcome) list

(** The header of a loaded journal, if present. *)
val header_of : record list -> header option
