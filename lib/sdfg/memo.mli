(** Bounded memo: a hash table that counts its hits and misses and is
    dropped wholesale when [capacity] distinct keys are live (callers
    revisit a tiny working set, so eviction finesse buys nothing).

    Keys are compared structurally, so a key should name content rather
    than a mutable value: the static analysis tables ([Analysis.Reuse])
    key by a state's or a program's content, and the compiled-plan cache
    ([Interp.Plan.Cache]) by a program digest and a sorted valuation. *)

type ('k, 'v) t

(** [capacity] defaults to 64. *)
val create : ?capacity:int -> unit -> ('k, 'v) t

(** [find_or_add m key f] returns the result stored under [key], or
    computes it with [f ()] and stores it. If [f] raises, nothing is
    stored. *)
val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

(** [(hits, misses)] since creation; a miss calls [f]. *)
val stats : (_, _) t -> int * int
