(** Element data types of data containers. *)

type t = F64 | F32 | I64 | I32 | Bool

val size_bytes : t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit
