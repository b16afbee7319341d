open Sdfg

type divergence = {
  container : string;
  flat_index : int;
  original : float;
  transformed : float;
  writer_order : int;
  writer : string;
}

let pp_divergence fmt d =
  Format.fprintf fmt "%s[%d]: %.10g vs %.10g (first written by %s, dataflow position %d)"
    d.container d.flat_index d.original d.transformed d.writer d.writer_order

(* Dataflow position of each container's first writer: states in BFS order,
   nodes in topological order within each state. *)
let writer_orders g =
  let orders = Hashtbl.create 16 in
  let counter = ref 0 in
  List.iter
    (fun sid ->
      let st = Graph.state g sid in
      List.iter
        (fun nid ->
          incr counter;
          List.iter
            (fun e ->
              match Propagate.written_memlet st e with
              | Some m when not (Hashtbl.mem orders m.data) ->
                  Hashtbl.replace orders m.data (!counter, Node.label (State.node st nid))
              | _ -> ())
            (State.out_edges st nid))
        (State.topological st))
    (Graph.states_bfs g);
  orders

let locate ?(threshold = 1e-5) ?(step_limit = 400_000) ~(cutout : Cutout.t) ~transformed ~symbols
    ~inputs () =
  let config = { Interp.Exec.default_config with step_limit } in
  match
    ( Interp.Exec.run ~config cutout.program ~symbols ~inputs,
      Interp.Exec.run ~config transformed ~symbols ~inputs )
  with
  | Ok o1, Ok o2 ->
      let orders = writer_orders cutout.program in
      let shared =
        Hashtbl.fold
          (fun name _ acc ->
            if Interp.Value.buffer_opt o2.memory name <> None then name :: acc else acc)
          o1.memory []
      in
      List.filter_map
        (fun name ->
          let b1 = Interp.Value.buffer o1.memory name in
          let b2 = Interp.Value.buffer o2.memory name in
          if Array.length b1.data <> Array.length b2.data then None
          else
            let n = Array.length b1.data in
            let rec scan i =
              if i >= n then None
              else if Difftest.values_match ~threshold b1.data.(i) b2.data.(i) then scan (i + 1)
              else
                let writer_order, writer =
                  match Hashtbl.find_opt orders name with
                  | Some (o, w) -> (o, w)
                  | None -> (max_int, "(input)")
                in
                Some
                  {
                    container = name;
                    flat_index = i;
                    original = b1.data.(i);
                    transformed = b2.data.(i);
                    writer_order;
                    writer;
                  }
            in
            scan 0)
        shared
      |> List.sort (fun a b -> compare (a.writer_order, a.container) (b.writer_order, b.container))
  | _ -> []

let of_report ?(config = Difftest.default_config) ~original ~(xform : Transforms.Xform.t)
    (report : Difftest.report) =
  match Testcase.of_report ~config ~original report with
  | None -> None
  | Some tc when tc.symbols = [] && tc.inputs = [] -> None
  | Some tc -> (
      let transformed = Graph.copy report.cutout.program in
      match xform.apply transformed report.site with
      | exception _ -> None
      | _ ->
          Some
            (locate ~threshold:config.threshold ~step_limit:config.step_limit
               ~cutout:report.cutout ~transformed ~symbols:tc.symbols ~inputs:tc.inputs ()))
