(** Kept only for bench/campaign/trials.ml: the batched tier's names, over
    execution plans. Nothing in lib, bin or test may call it. *)

module Cache = Plan.Cache

(** [execute_batch t ~inputs] is {!Plan.execute} over each element of
    [inputs], in order. *)
val execute_batch :
  ?config:Defs.config -> Plan.t -> inputs:(string * float array) list array ->
  (Defs.outcome, Defs.fault) result array
