open Sdfg

(* Forward reaching-definitions for transient containers across state
   boundaries. The per-container status lattice is

       No (never defined)  <  Yes (defined on every path)
                 \              /
                   Maybe (some paths)

   with the pointwise meet at control-flow joins. Externals are program
   inputs and always defined; only transients are tracked. *)

type status = Maybe | Yes

(* The fact maps containers to their status; a missing container is "No".
   [None] is the unreachable state. *)
type env = (string * status) list option

let join_status a b =
  match (a, b) with Some Yes, Some Yes -> Yes | _ -> Maybe

let join (a : env) (b : env) : env =
  match (a, b) with
  | None, x | x, None -> x
  | Some fa, Some fb ->
      let keys = List.sort_uniq compare (List.map fst fa @ List.map fst fb) in
      Some
        (List.map
           (fun k -> (k, join_status (List.assoc_opt k fa) (List.assoc_opt k fb)))
           keys)

let lattice = { Fixpoint.bottom = (None : env); equal = ( = ); join; widen = None }

let solve g =
  let state_writes = Hashtbl.create 16 in
  List.iter
    (fun (sid, st) ->
      Hashtbl.replace state_writes sid
        (List.sort_uniq compare (List.map fst (snd (Propagate.state_rw st)))))
    (Graph.states g);
  Fixpoint.solve ~lattice ~init:(Some [])
    ~transfer:(fun sid env ->
      match env with
      | None -> None
      | Some facts ->
          Some
            (List.fold_left
               (fun facts c ->
                 match Graph.container_opt g c with
                 | Some (d : Graph.datadesc) when d.transient ->
                     List.sort compare ((c, Yes) :: List.remove_assoc c facts)
                 | _ -> facts)
               facts
               (Hashtbl.find state_writes sid)))
    ~edge:(fun _e env -> env)
    g

(* A transient read in a state that no definition reaches. Reads in a state
   that also writes the container stay quiet — the in-state write may precede
   the read, and state-internal ordering is {!Defuse}'s (and the executor's)
   concern. Containers never written anywhere are already {!Defuse} errors;
   re-reporting them here would be noise.

   [maybes] (default off) additionally warns when a write reaches only on
   some paths. Path-insensitivity manufactures such paths for every
   loop-carried transient (the zero-trip-count path skips the body's write),
   so the default reports definite findings only. *)
let check ?(maybes = false) g =
  let sol = solve g in
  let written_somewhere = Propagate.program_writes g in
  let flag sid ~via c status =
    let detail, severity =
      match status with
      | None ->
          ( Printf.sprintf
              "transient is read%s but no write reaches this state on any path" via,
            Report.Error )
      | Some Maybe ->
          ( Printf.sprintf
              "transient is read%s but a write reaches this state only on some paths" via,
            Report.Warning )
      | Some Yes -> assert false
    in
    let node =
      match Graph.state_opt g sid with
      | Some st -> ( match Sdfg.State.access_nodes st c with n :: _ -> n | [] -> -1)
      | None -> -1
    in
    Report.make ~pass:Report.Use_before_def ~severity ~state:sid ~node ~container:c detail
  in
  let transient_unwritten_here st c =
    match Graph.container_opt g c with
    | Some (d : Graph.datadesc) ->
        d.transient
        && List.mem c written_somewhere
        && not (List.mem_assoc c (snd (Propagate.state_rw st)))
    | None -> false
  in
  let state_findings =
    List.concat_map
      (fun (sid, st) ->
        match Fixpoint.entry_fact sol sid with
        | None | Some None -> []
        | Some (Some facts) ->
            List.map fst (fst (Propagate.state_rw st))
            |> List.sort_uniq compare
            |> List.filter_map (fun c ->
                   if not (transient_unwritten_here st c) then None
                   else
                     match List.assoc_opt c facts with
                     | Some Yes -> None
                     | Some Maybe when not maybes -> None
                     | (None | Some Maybe) as status -> Some (flag sid ~via:"" c status)))
      (Graph.states g)
  in
  (* interstate conditions/assignments read scalar containers after their
     source state completes *)
  let edge_findings =
    List.concat_map
      (fun (e : Graph.istate_edge) ->
        match Fixpoint.exit_fact sol e.src with
        | None | Some None -> []
        | Some (Some facts) ->
            Propagate.interstate_reads g e
            |> List.sort_uniq compare
            |> List.filter_map (fun c ->
                   match Graph.container_opt g c with
                   | Some (d : Graph.datadesc)
                     when d.transient && List.mem c written_somewhere -> (
                       match List.assoc_opt c facts with
                       | Some Yes -> None
                       | Some Maybe when not maybes -> None
                       | (None | Some Maybe) as status ->
                           Some (flag e.src ~via:" by an interstate edge" c status))
                   | _ -> None))
      (Graph.istate_edges g)
  in
  state_findings @ edge_findings
