open Sdfg

(* The cutout the pipeline extracts for a transformation covers the scope
   closure of the declared change set (and the declared states wholesale).
   A true diff escaping that closure means the transformation modified
   program parts the cutout does not cover — localized testing would compare
   the wrong subprogram, a soundness bug in extraction, not merely a sloppy
   declaration. *)

let node_label g sid n =
  match Graph.state_opt g sid with
  | None -> Printf.sprintf "node %d" n
  | Some st -> (
      match State.node_opt st n with
      | Some nd -> Node.label nd
      | None -> Printf.sprintf "node %d" n)

let check ~original ~transformed ~(declared : Diff.change_set) =
  let true_cs = Diff.compute ~original ~transformed in
  let closure_cache = Hashtbl.create 4 in
  let closure_for sid =
    match Hashtbl.find_opt closure_cache sid with
    | Some c -> c
    | None ->
        let seeds =
          List.filter_map
            (fun (s, n) -> if s = sid then Some n else None)
            declared.Diff.nodes
        in
        let cl g =
          match Graph.state_opt g sid with
          | None -> []
          | Some st -> State.scope_closure st seeds
        in
        let c = List.sort_uniq compare (cl original @ cl transformed) in
        Hashtbl.replace closure_cache sid c;
        c
  in
  let node_findings =
    List.filter_map
      (fun (sid, n) ->
        if List.mem sid declared.Diff.states || List.mem n (closure_for sid) then None
        else
          Some
            (Report.make ~pass:Report.Change_set ~severity:Report.Error ~state:sid ~node:n
               ~container:(node_label original sid n)
               (Printf.sprintf
                  "changed node %d.%d is outside the scope closure of the declared change set"
                  sid n)))
      true_cs.Diff.nodes
  in
  let state_findings =
    List.filter_map
      (fun sid ->
        if List.mem sid declared.Diff.states then None
        else
          Some
            (Report.make ~pass:Report.Change_set ~severity:Report.Error ~state:sid
               ~container:"<control-flow>"
               (Printf.sprintf
                  "state %d's control flow changed but the state is not in the declared change set"
                  sid)))
      true_cs.Diff.states
  in
  Report.sort (node_findings @ state_findings)

let check_xform g x site =
  match Transforms.Xform.apply_copy x g site with
  | Ok (g', declared) -> Some (check ~original:g ~transformed:g' ~declared)
  | Error _ -> None
