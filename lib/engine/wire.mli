(** The distributed campaign wire protocol: versioned, length-prefixed frames
    carrying [Marshal]-encoded messages, each guarded by an FNV-1a64 payload
    checksum.

    Frame layout (big-endian): ["FFWP"] magic (4 bytes) · protocol version
    (2) · payload length (4) · FNV-1a64 payload checksum (8) · payload.
    The checksum catches frames truncated or garbled in flight — Marshal
    alone can silently accept a prefix whose trailing bytes were corrupted —
    and the version field rejects a mismatched peer before any payload is
    decoded.

    Closures never cross this wire: assignments name transformations by
    registry name and carry the program graph as marshalled data; plans are
    compiled worker-side, inside the instance that runs them. *)

val protocol_version : int

val magic : string

val header_len : int

val max_frame_len : int

(** Peer closed the connection (EOF, reset, or broken pipe) mid-frame. *)
exception Closed

(** The per-call deadline elapsed before a full frame moved. *)
exception Timeout

(** Corrupt frame: bad magic, implausible length, checksum mismatch, or an
    undecodable payload. The connection is unusable afterwards. *)
exception Protocol_error of string

(** The peer speaks a different protocol version (read from the frame
    header, before any payload decode). *)
exception Bad_version of { ours : int; theirs : int }

(** FNV-1a over a string, 64-bit — the frame checksum. Exposed for tests
    and for crafting deliberately corrupt frames in the fault lab. *)
val fnv1a64 : string -> int64

(** One campaign instance shipped to a remote worker. *)
type assignment = {
  a_idx : int;  (** dispatcher-side index; echoed back in the result *)
  a_program : string;
  a_graph : string;  (** [Marshal] of the program graph *)
  a_xform : string;  (** registry name; resolved worker-side *)
  a_site : Transforms.Xform.site;
  a_config : Fuzzyflow.Difftest.config;  (** per-instance seed already substituted *)
  a_static_gate : bool;
  a_certify_gate : bool;
  a_deadline_s : float;
}

(** A campaign submission to the daemon's control port. *)
type submission = {
  s_workloads : string list;
  s_correct : bool;  (** correct-variant catalog instead of as-shipped *)
  s_trials : int;
  s_seed : int;
  s_max_size : int;
  s_defines : (string * int) list;  (** concretization symbol values *)
  s_limit_per : int option;
  s_static_gate : bool;
  s_certify_gate : bool;
}

type message =
  | Hello of { proto : int }  (** client → worker handshake *)
  | Hello_ack of { proto : int }
  | Ping of int  (** idle-connection heartbeat; echoed as [Pong] *)
  | Pong of int
  | Assign of assignment
  | Result of {
      r_idx : int;
      r_status : Fuzzyflow.Campaign.exec_status;
      r_payload : Fuzzyflow.Campaign.instance_result option;
          (** [Some] iff [r_status] is [Completed] *)
    }
  | Refused of { r_idx : int; r_detail : string }
      (** the worker cannot run this assignment (unknown transformation,
          undecodable graph); the dispatcher requeues it elsewhere *)
  | Shutdown
  | Submit of submission  (** client → daemon *)
  | Journal_line of string  (** daemon → client: streamed journal record *)
  | Table of string  (** daemon → client: final campaign table *)
  | Done of { ok : bool; detail : string }

(** [encode_frame ?proto payload] builds a raw frame around an arbitrary
    payload; [encode] marshals a message first. [?proto] lets tests forge a
    version-mismatched frame. *)
val encode_frame : ?proto:int -> string -> string

val encode : ?proto:int -> message -> string

(** Write a full frame, bounded by [timeout_s] (default: block).
    @raise Closed on a dead peer, [Timeout] past the deadline. *)
val write_message : ?timeout_s:float -> Unix.file_descr -> message -> unit

(** Read one full frame, bounded by [timeout_s] (default: block).
    @raise Closed on EOF, [Timeout] past the deadline, [Bad_version] on a
    version-mismatched header, [Protocol_error] on corruption. *)
val read_message : ?timeout_s:float -> Unix.file_descr -> message

(** TCP connect with a hard timeout; the returned descriptor is blocking.
    @raise Unix.Unix_error (e.g. [ECONNREFUSED]) or [Timeout]. *)
val connect : timeout_s:float -> host:string -> port:int -> Unix.file_descr

(** Bind + listen on [host] (default loopback); [port = 0] picks an
    ephemeral port. Returns the socket and the actual bound port. *)
val listen_on : ?host:Unix.inet_addr -> port:int -> unit -> Unix.file_descr * int
