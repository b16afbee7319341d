(* Kept only for bench/campaign/trials.ml, the benchmark's traced re-drive,
   which names these. Nothing in lib, bin or test calls it; it goes with
   trials.ml. *)

module Cache = Plan.Cache

let execute_batch ?config t ~inputs =
  Array.map (fun inputs -> Plan.execute ?config t ~inputs) inputs
