(** Edge capacities for flow networks: non-negative integers plus infinity.

    Infinite capacities encode edges the minimum input-flow cut preparation of
    Sec. 4.2 must never cut (e.g. outgoing edges of data nodes). *)

type t = Finite of int | Inf

val zero : t
val finite : int -> t
(** @raise Invalid_argument on negative input. *)

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] with [b <= a]; [Inf - x = Inf].
    @raise Invalid_argument if the result would be negative or [Inf - Inf]. *)

val min : t -> t -> t
val compare : t -> t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit
