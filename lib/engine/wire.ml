open Fuzzyflow

(* ---------------- protocol constants ---------------- *)

let protocol_version = 4
let magic = "FFWP"

(* magic(4) + version(2, BE) + payload length(4, BE) + FNV-1a64 checksum(8, BE) *)
let header_len = 18

(* A marshalled cutout graph plus a full report is well under a megabyte;
   anything near this bound is a corrupted length field, not a real frame. *)
let max_frame_len = 64 * 1024 * 1024

exception Closed
exception Timeout
exception Protocol_error of string
exception Bad_version of { ours : int; theirs : int }

(* Same FNV-1a construction as [Campaign.instance_seed] and the mpi_sim
   checksum: cheap, deterministic, and plenty to catch a proxy- or
   kill-truncated frame (Marshal itself would often accept a prefix of a
   payload whose trailing bytes were garbled). *)
let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

(* ---------------- messages ---------------- *)

type assignment = {
  a_idx : int;
  a_program : string;
  a_graph : string;  (** [Marshal] of the program graph *)
  a_xform : string;  (** registry name; resolved worker-side *)
  a_site : Transforms.Xform.site;
  a_config : Difftest.config;  (** per-instance seed already substituted *)
  a_static_gate : bool;
  a_certify_gate : bool;
  a_deadline_s : float;
}

type submission = {
  s_workloads : string list;
  s_correct : bool;
  s_trials : int;
  s_seed : int;
  s_max_size : int;
  s_defines : (string * int) list;
  s_limit_per : int option;
  s_static_gate : bool;
  s_certify_gate : bool;
}

type message =
  | Hello of { proto : int }
  | Hello_ack of { proto : int }
  | Ping of int
  | Pong of int
  | Assign of assignment
  | Result of {
      r_idx : int;
      r_status : Campaign.exec_status;
      r_payload : Campaign.instance_result option;
    }
  | Refused of { r_idx : int; r_detail : string }
  | Shutdown
  | Submit of submission
  | Journal_line of string
  | Table of string
  | Done of { ok : bool; detail : string }

(* ---------------- framing ---------------- *)

let encode_frame ?(proto = protocol_version) payload =
  let len = String.length payload in
  let b = Bytes.create (header_len + len) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint16_be b 4 proto;
  Bytes.set_int32_be b 6 (Int32.of_int len);
  Bytes.set_int64_be b 10 (fnv1a64 payload);
  Bytes.blit_string payload 0 b header_len len;
  Bytes.unsafe_to_string b

let encode ?proto msg = encode_frame ?proto (Marshal.to_string msg [])

(* ---------------- deadline-aware socket IO ---------------- *)

let now () = Unix.gettimeofday ()

let rec wait_io dir fd deadline =
  (match deadline with Some d when now () >= d -> raise Timeout | _ -> ());
  let tmo = match deadline with None -> -1. | Some d -> Float.max 0. (d -. now ()) in
  let r, w = match dir with `R -> ([ fd ], []) | `W -> ([], [ fd ]) in
  match Unix.select r w [] tmo with
  | [], [], [] -> raise Timeout
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_io dir fd deadline

let read_exactly fd n deadline =
  let b = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    wait_io `R fd deadline;
    match Unix.read fd b !off (n - !off) with
    | 0 -> raise Closed
    | k -> off := !off + k
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> raise Closed
  done;
  Bytes.unsafe_to_string b

let write_all fd s deadline =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    wait_io `W fd deadline;
    match Unix.write fd b !off (n - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> raise Closed
  done

let deadline_of timeout_s = Option.map (fun t -> now () +. t) timeout_s

let write_message ?timeout_s fd msg = write_all fd (encode msg) (deadline_of timeout_s)

let read_message ?timeout_s fd =
  let deadline = deadline_of timeout_s in
  let hdr = read_exactly fd header_len deadline in
  if String.sub hdr 0 4 <> magic then raise (Protocol_error "bad magic");
  let proto = String.get_uint16_be hdr 4 in
  if proto <> protocol_version then raise (Bad_version { ours = protocol_version; theirs = proto });
  let len = Int32.to_int (String.get_int32_be hdr 6) in
  if len < 0 || len > max_frame_len then
    raise (Protocol_error (Printf.sprintf "implausible frame length %d" len));
  let sum = String.get_int64_be hdr 10 in
  let payload = read_exactly fd len deadline in
  if not (Int64.equal (fnv1a64 payload) sum) then raise (Protocol_error "checksum mismatch");
  match (Marshal.from_string payload 0 : message) with
  | m -> m
  | exception _ -> raise (Protocol_error "undecodable payload")

(* ---------------- connection helpers ---------------- *)

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } -> raise Not_found
      | h -> h.Unix.h_addr_list.(0)
      | exception Not_found ->
          raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host)))

(* Non-blocking connect bounded by [timeout_s]; the returned descriptor is
   back in blocking mode. A refused or unreachable peer raises the underlying
   [Unix.Unix_error]; a silent peer raises [Timeout]. *)
let connect ~timeout_s ~host ~port =
  let addr = resolve host in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.set_nonblock fd;
    (try Unix.connect fd (Unix.ADDR_INET (addr, port)) with
    | Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ());
    wait_io `W fd (Some (now () +. timeout_s));
    (match Unix.getsockopt_error fd with
    | Some err -> raise (Unix.Unix_error (err, "connect", Printf.sprintf "%s:%d" host port))
    | None -> ());
    Unix.clear_nonblock fd
  with
  | () -> fd
  | exception e ->
      (try Unix.close fd with _ -> ());
      raise e

let listen_on ?(host = Unix.inet_addr_loopback) ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (host, port));
  Unix.listen fd 64;
  let actual =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  (fd, actual)
