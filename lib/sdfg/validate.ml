type error = { state : int option; what : string }

let pp_error fmt e =
  match e.state with
  | None -> Format.fprintf fmt "sdfg: %s" e.what
  | Some s -> Format.fprintf fmt "state %d: %s" s e.what

let err ?state what = { state; what }

let lib_connectors = function
  | Node.Mat_mul | Node.Batched_mat_mul -> ([ "A"; "B" ], [ "C" ])
  | Node.Reduce _ -> ([ "in" ], [ "out" ])

let check_state g sid (st : State.t) =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let nodes = State.nodes st in
  (* Edge endpoint and memlet checks *)
  List.iter
    (fun (e : State.edge) ->
      if not (State.has_node st e.src) then add (err ~state:sid (Printf.sprintf "edge %d: missing src node %d" e.e_id e.src));
      if not (State.has_node st e.dst) then add (err ~state:sid (Printf.sprintf "edge %d: missing dst node %d" e.e_id e.dst));
      let check_memlet = function
        | None -> ()
        | Some (m : Memlet.t) -> (
            match Graph.container_opt g m.data with
            | None ->
                add
                  (err ~state:sid
                     (Printf.sprintf "edge %d: memlet references undeclared container %s" e.e_id m.data))
            | Some desc ->
                let dims = List.length desc.shape in
                let sdims = Symbolic.Subset.num_dims m.subset in
                if dims <> sdims then
                  add
                    (err ~state:sid
                       (Printf.sprintf "edge %d: memlet on %s has %d dims, container has %d" e.e_id
                          m.data sdims dims)))
      in
      check_memlet e.memlet;
      check_memlet e.dst_memlet)
    (State.edges st);
  (* Node-local checks *)
  List.iter
    (fun (id, n) ->
      match n with
      | Node.Access d ->
          if not (Graph.has_container g d) then
            add (err ~state:sid (Printf.sprintf "access node %d references undeclared container %s" id d))
      | Node.Map_entry { params; ranges; _ } ->
          if List.length params <> List.length ranges then
            add (err ~state:sid (Printf.sprintf "map entry %d: %d params but %d ranges" id (List.length params) (List.length ranges)));
          (match State.exit_of st id with
          | _ -> ()
          | exception Not_found -> add (err ~state:sid (Printf.sprintf "map entry %d has no matching exit" id)))
      | Node.Map_exit { entry } -> (
          match State.node_opt st entry with
          | Some (Node.Map_entry _) -> ()
          | _ -> add (err ~state:sid (Printf.sprintf "map exit %d references bad entry %d" id entry)))
      | Node.Tasklet { code; label } ->
          let in_conns =
            List.filter_map (fun (e : State.edge) -> e.dst_conn) (State.in_edges st id)
          in
          let out_edges = State.out_edges st id in
          let outs = Tcode.outputs code in
          List.iter
            (fun (e : State.edge) ->
              match (e.src_conn, e.memlet) with
              | None, Some _ ->
                  add
                    (err ~state:sid
                       (Printf.sprintf "tasklet %s (%d): data edge without connector" label id))
              | None, None -> () (* pure dependency edge *)
              | Some c, _ ->
                  if not (List.mem c outs) then
                    add
                      (err ~state:sid
                         (Printf.sprintf "tasklet %s (%d): out connector %s not produced by code"
                            label id c)))
            out_edges;
          List.iter
            (fun c ->
              if not (List.mem c (Tcode.refs code)) then
                add (err ~state:sid (Printf.sprintf "tasklet %s (%d): in connector %s unused by code" label id c)))
            in_conns;
          (* unconnected assignments are internal temporaries; only require
             that the tasklet produces at least one connected output when it
             has any out edges at all *)
          ignore outs
      | Node.Library { kind; label } ->
          let ins, outs = lib_connectors kind in
          List.iter
            (fun c ->
              if
                not
                  (List.exists
                     (fun (e : State.edge) -> e.dst_conn = Some c && e.memlet <> None)
                     (State.in_edges st id))
              then add (err ~state:sid (Printf.sprintf "library %s (%d): missing input %s" label id c)))
            ins;
          List.iter
            (fun c ->
              if
                not
                  (List.exists
                     (fun (e : State.edge) -> e.src_conn = Some c && e.memlet <> None)
                     (State.out_edges st id))
              then add (err ~state:sid (Printf.sprintf "library %s (%d): missing output %s" label id c)))
            outs)
    nodes;
  (* Map scopes nest: the node sets of two scopes are disjoint or one
     contains the other. An entry without an exit is reported above. *)
  let scopes =
    List.filter_map
      (fun (id, n) ->
        if not (Node.is_map_entry n) then None
        else
          match State.exit_of st id with
          | _ -> Some (id, State.scope_nodes st id)
          | exception Not_found -> None)
      nodes
  in
  let within s s' = List.for_all (fun n -> List.mem n s') s in
  let rec nest = function
    | [] -> ()
    | (a, sa) :: rest ->
        List.iter
          (fun (b, sb) ->
            if List.exists (fun n -> List.mem n sb) sa && not (within sa sb || within sb sa) then
              add
                (err ~state:sid
                   (Printf.sprintf "map scopes %d and %d overlap without nesting" a b)))
          rest;
        nest rest
  in
  nest scopes;
  (* GPU storage discipline: memlets attached to tasklets inside GPU-scheduled
     scopes must reference device-resident containers. *)
  let gpu_entries =
    List.filter_map
      (fun (id, n) ->
        match n with
        | Node.Map_entry { schedule = Node.Gpu_device; _ } when List.mem_assoc id scopes -> Some id
        | _ -> None)
      nodes
  in
  List.iter
    (fun entry ->
      let inside = State.scope_nodes st entry in
      List.iter
        (fun nid ->
          match State.node_opt st nid with
          | Some (Node.Tasklet _ | Node.Library _) ->
              List.iter
                (fun (e : State.edge) ->
                  match e.memlet with
                  | Some m -> (
                      match Graph.container_opt g m.data with
                      | Some d when d.storage = Graph.Host ->
                          add
                            (err ~state:sid
                               (Printf.sprintf
                                  "GPU-scheduled scope %d accesses host container %s" entry m.data))
                      | _ -> ())
                  | None -> ())
                (State.in_edges st nid @ State.out_edges st nid)
          | _ -> ())
        inside)
    gpu_entries;
  (* Acyclicity *)
  (match State.topological st with
  | (_ : int list) -> ()
  | exception Failure _ -> add (err ~state:sid "dataflow graph has a cycle"));
  !errors

(* Graph-wide errors ([state = None]) sort before per-state ones; within a
   state, errors order by message text. The polymorphic compare on the record
   gives exactly that (None < Some, then string compare on [what]). *)
let compare_error (a : error) (b : error) = compare a b

let check g =
  let errors = ref [] in
  if Graph.state_ids g <> [] && Graph.state_opt g (Graph.start_state g) = None then
    errors := [ err "missing start state" ];
  List.iter
    (fun (e : Graph.istate_edge) ->
      if Graph.state_opt g e.src = None || Graph.state_opt g e.dst = None then
        errors := err (Printf.sprintf "interstate edge %d references missing state" e.ie_id) :: !errors)
    (Graph.istate_edges g);
  List.iter (fun (sid, st) -> errors := check_state g sid st @ !errors) (Graph.states g);
  List.sort_uniq compare_error !errors

let check_exn g =
  match check g with
  | [] -> ()
  | e :: _ -> failwith (Format.asprintf "invalid SDFG %s: %a" (Graph.name g) pp_error e)
