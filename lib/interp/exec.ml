(* Public interpreter entry point.

   The execution machinery lives in three modules: Defs (shared fault /
   injection / outcome vocabulary), Tree (the reference tree-walk
   interpreter) and Plan (compile-once execution plans). [run] keeps the
   historical one-shot interface — compile then execute; hot loops should
   apply Plan.compile once per graph to lower it, bind each valuation to
   the result, and call Plan.execute per trial, as Difftest.sweep does. *)

include Defs

let run_tree = Tree.run

let run ?(config = default_config) g ~symbols ~inputs =
  match Plan.compile g ~symbols with
  | Error f -> Error f
  | Ok p -> Plan.execute ~config p ~inputs
