(** Bounded memo of per-program results, keyed by the program's canonical
    digest (MD5 of {!Serialize.to_string}) and a sorted symbol valuation.

    The key names the program's content, not the graph value: the same
    program rebuilt, copied or received over the wire hits. When
    [capacity] distinct keys are live the table is dropped wholesale
    (callers revisit a tiny working set, so eviction finesse buys
    nothing). The compiled-plan and kernel caches and the static delta's
    baseline memo are all built on it. *)

type 'a t

(** [capacity] defaults to 64. *)
val create : ?capacity:int -> unit -> 'a t

(** Digest of the graph's canonical serialization. Compute it once per
    graph and pass it to {!find_or_add} when the same graph is looked up
    under many valuations — re-serializing per call can cost more than
    the memoized work. *)
val digest_of : Graph.t -> string

(** [find_or_add ?digest m g ~symbols f] returns the memoized result for
    ([g], [symbols]), or computes it with [f ()] and stores it. *)
val find_or_add :
  ?digest:string -> 'a t -> Graph.t -> symbols:(string * int) list -> (unit -> 'a) -> 'a

(** [(hits, misses)] since creation; a miss calls [f]. *)
val stats : 'a t -> int * int
