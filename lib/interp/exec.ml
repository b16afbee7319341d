(* Public interpreter entry point.

   The execution machinery lives in three modules: Defs (shared fault /
   injection / outcome vocabulary), Tree (the reference tree-walk
   interpreter) and Plan (compile-once execution plans). [run] keeps the
   historical one-shot interface — admit, compile, then execute; hot loops
   should admit each graph once, apply Plan.compile to lower it, bind each
   valuation to the result, and call Plan.execute per trial, as
   Difftest.sweep does. *)

include Defs

let run_tree = Tree.run

let run ?(config = default_config) g ~symbols ~inputs =
  match Sdfg.Validate.admit g with
  | Error e -> Error (invalid_graph e)
  | Ok v -> Result.bind (Plan.compile v ~symbols) (fun p -> Plan.execute ~config p ~inputs)
