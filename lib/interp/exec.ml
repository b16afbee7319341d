(* Public interpreter entry point.

   The execution machinery lives in four modules now: Defs (shared fault /
   injection / outcome vocabulary), Tree (the reference tree-walk
   interpreter), Plan (compile-once execution plans) and Kernel (batched
   imperative kernels over Bigarray buffers with a batch axis). [run] keeps
   the historical one-shot interface — compile then execute — with the tier
   made explicit; hot loops should compile once per valuation with
   Plan.compile or Kernel.compile and call execute / execute_batch per
   trial, as Difftest.sweep does. *)

include Defs

type tier = Tree | Plan | Kernel

let run_tree = Tree.run

let run ?(config = default_config) ?(tier = Plan) g ~symbols ~inputs =
  match tier with
  | Tree -> Tree.run ~config g ~symbols ~inputs
  | Plan -> (
      match Plan.compile g ~symbols with
      | Error f -> Error f
      | Ok p -> Plan.execute ~config p ~inputs)
  | Kernel -> (
      match Kernel.compile g ~symbols with
      | Error f -> Error f
      | Ok k -> Kernel.execute ~config k ~inputs)

let run_batch ?(config = default_config) g ~symbols ~inputs =
  match Kernel.compile g ~symbols with
  | Error f -> Array.map (fun _ -> Error f) inputs
  | Ok k -> Kernel.execute_batch ~config k ~inputs
