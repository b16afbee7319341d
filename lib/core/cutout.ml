open Sdfg

type t = {
  program : Graph.t;
  kind : kind;
  input_config : string list;
  system_state : string list;
  free_symbols : string list;
}

and kind =
  | Dataflow of { state : int; nodes : int list }
  | Multistate of { states : int list }

type options = { symbols : (string * int) list }

let default_options = { symbols = [] }

(* Conservative overlap: missing symbol bindings mean "may overlap". *)
let subsets_overlap env a b =
  try
    Symbolic.Subset.overlaps (Symbolic.Subset.concretize env a) (Symbolic.Subset.concretize env b)
  with Symbolic.Expr.Unbound_symbol _ | Symbolic.Expr.Division_by_zero | Invalid_argument _ -> true

(* ------------------------------------------------------------------ *)
(* Closure of the seed node set (Sec. 3, step 3)                       *)
(* ------------------------------------------------------------------ *)

(* Expand a seed set to something executable: whole map scopes (including all
   enclosing scopes) plus the access nodes of every direct data dependency. *)
let closure st seed =
  let set = Hashtbl.create 32 in
  let queue = Queue.create () in
  let add n =
    if State.has_node st n && not (Hashtbl.mem set n) then begin
      Hashtbl.replace set n ();
      Queue.add n queue
    end
  in
  List.iter add seed;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    (match State.node st n with
    | Node.Map_entry _ ->
        (match State.exit_of st n with ex -> add ex | exception Not_found -> ());
        List.iter add (State.scope_nodes st n)
    | Node.Map_exit { entry } ->
        add entry;
        List.iter add (State.scope_nodes st entry)
    | _ -> ());
    (match State.scope_of st n with Some e -> add e | None -> ());
    (match State.node st n with
    | Node.Access _ -> ()
    | _ ->
        List.iter
          (fun (e : State.edge) ->
            match State.node_opt st e.src with Some (Node.Access _) -> add e.src | _ -> ())
          (State.in_edges st n);
        List.iter
          (fun (e : State.edge) ->
            match State.node_opt st e.dst with Some (Node.Access _) -> add e.dst | _ -> ())
          (State.out_edges st n))
  done;
  Hashtbl.fold (fun n () acc -> n :: acc) set [] |> List.sort compare

(* Read and write sets are the access-node view of {!Sdfg.Propagate}; an
   interstate read is of a whole scalar. *)
let scalar_reads g e =
  List.map (fun c -> (c, Symbolic.Subset.scalar)) (Propagate.interstate_reads g e)

(* ------------------------------------------------------------------ *)
(* System state & input configuration (Sec. 3.1 / 3.2)                 *)
(* ------------------------------------------------------------------ *)

(* [before] / [after]: accesses in program regions that execute before (may
   produce cutout inputs) or after (may consume cutout outputs) the cutout.
   Same-state accesses outside the cutout count on both sides — conservative
   with respect to unordered dataflow. *)
type surroundings = {
  before_writes : (string * Symbolic.Subset.t) list;
  after_reads : (string * Symbolic.Subset.t) list;
}

let surroundings_dataflow g sid nodes =
  let st = Graph.state g sid in
  let outside = List.filter (fun n -> not (List.mem n nodes)) (State.node_ids st) in
  let same_r, same_w = Propagate.nodes_rw st outside in
  (* cross-boundary edges (one endpoint in the cutout) also access data *)
  let br = ref [] and ar = ref [] in
  List.iter
    (fun (e : State.edge) ->
      let src_in = List.mem e.src nodes and dst_in = List.mem e.dst nodes in
      if src_in <> dst_in then begin
        let r, w = Propagate.edge_rw st e in
        if src_in then ar := r @ !ar (* outside node reads what the edge moves *)
        else br := w @ !br
      end)
    (State.edges st);
  let before_states = Graph.coreachable_states g sid in
  let after_states = Graph.reachable_states g sid in
  let collect sids f =
    List.concat_map
      (fun s -> match Graph.state_opt g s with Some st -> f (Propagate.state_rw st) | None -> [])
      sids
  in
  let before_writes = same_w @ !br @ collect before_states snd in
  let istate_after =
    List.concat_map
      (fun (e : Graph.istate_edge) ->
        if e.src = sid || List.mem e.src after_states then scalar_reads g e else [])
      (Graph.istate_edges g)
  in
  let after_reads = same_r @ !ar @ collect after_states fst @ istate_after in
  { before_writes; after_reads }

let surroundings_multistate g region =
  let before_states =
    List.concat_map (fun s -> Graph.coreachable_states g s) region
    |> List.sort_uniq compare
    |> List.filter (fun s -> not (List.mem s region))
  in
  let after_states =
    List.concat_map (fun s -> Graph.reachable_states g s) region
    |> List.sort_uniq compare
    |> List.filter (fun s -> not (List.mem s region))
  in
  let collect sids f =
    List.concat_map
      (fun s -> match Graph.state_opt g s with Some st -> f (Propagate.state_rw st) | None -> [])
      sids
  in
  let istate_reads_of sids =
    List.concat_map
      (fun (e : Graph.istate_edge) -> if List.mem e.src sids then scalar_reads g e else [])
      (Graph.istate_edges g)
  in
  {
    before_writes = collect before_states snd;
    after_reads = collect after_states fst @ istate_reads_of after_states;
  }

(* The two analyses of Secs. 3.1-3.2, given the cutout's own read/write sets
   and its surroundings. *)
let classify g env ~reads ~writes ~surr =
  let external_ c =
    match Graph.container_opt g c with Some d -> not d.transient | None -> false
  in
  let input_config =
    List.filter_map
      (fun (c, sub) ->
        if external_ c then Some c
        else if
          List.exists (fun (c', sub') -> c' = c && subsets_overlap env sub sub') surr.before_writes
        then Some c
        else None)
      reads
    |> List.sort_uniq compare
  in
  let system_state =
    List.filter_map
      (fun (c, sub) ->
        if external_ c then Some c
        else if
          List.exists (fun (c', sub') -> c' = c && subsets_overlap env sub sub') surr.after_reads
        then Some c
        else None)
      writes
    |> List.sort_uniq compare
  in
  (input_config, system_state)

(* ------------------------------------------------------------------ *)
(* Building the standalone program                                     *)
(* ------------------------------------------------------------------ *)

let referenced_containers_of_state st =
  let from_edges = State.referenced_containers st in
  let from_nodes =
    List.filter_map (fun (_, n) -> match n with Node.Access d -> Some d | _ -> None)
      (State.nodes st)
  in
  List.sort_uniq compare (from_edges @ from_nodes)

let declare_containers p c states_in_c ~input_config ~system_state ~extra =
  let referenced =
    List.concat_map (fun st -> referenced_containers_of_state st) states_in_c @ extra
    |> List.sort_uniq compare
  in
  List.iter
    (fun name ->
      match Graph.container_opt p name with
      | None -> ()
      | Some desc ->
          let visible = List.mem name input_config || List.mem name system_state in
          Graph.add_container c name { desc with transient = not visible })
    referenced

let subgraph_state st nodes =
  let st' = State.create (State.label st ^ "_cut") in
  List.iter (fun n -> State.add_node_with_id st' n (State.node st n)) nodes;
  List.iter
    (fun (e : State.edge) ->
      if List.mem e.src nodes && List.mem e.dst nodes then
        ignore
          (State.add_edge st' ?src_conn:e.src_conn ?dst_conn:e.dst_conn ?memlet:e.memlet
             ?dst_memlet:e.dst_memlet e.src e.dst))
    (State.edges st);
  st'

let extract_dataflow ?(options = default_options) p ~state:sid ~nodes:seed =
  let env = Symbolic.Expr.Env.of_list options.symbols in
  let st = Graph.state p sid in
  let nodes = closure st seed in
  if nodes = [] then invalid_arg "Cutout.extract_dataflow: empty seed";
  let reads, writes = Propagate.nodes_rw st nodes in
  let surr = surroundings_dataflow p sid nodes in
  let input_config, system_state = classify p env ~reads ~writes ~surr in
  let c = Graph.create (Graph.name p ^ "_cutout") in
  List.iter (Graph.add_symbol c) (Graph.symbols p);
  let st' = subgraph_state st nodes in
  Graph.add_state_with_id c sid st';
  declare_containers p c [ st' ] ~input_config ~system_state ~extra:[];
  {
    program = c;
    kind = Dataflow { state = sid; nodes };
    input_config;
    system_state;
    free_symbols = Graph.all_free_syms c;
  }

let extract_multistate ?(options = default_options) p region =
  let env = Symbolic.Expr.Env.of_list options.symbols in
  let region = List.sort_uniq compare region in
  let rw = List.map (fun sid -> Propagate.state_rw (Graph.state p sid)) region in
  let reads = List.concat_map fst rw
  and writes = List.concat_map snd rw in
  (* interstate edges inside the region read scalars too *)
  let inner_iedges =
    List.filter
      (fun (e : Graph.istate_edge) -> List.mem e.src region && List.mem e.dst region)
      (Graph.istate_edges p)
  in
  let reads = reads @ List.concat_map (scalar_reads p) inner_iedges in
  let surr = surroundings_multistate p region in
  let input_config, system_state = classify p env ~reads ~writes ~surr in
  let c = Graph.create (Graph.name p ^ "_cutout") in
  List.iter (Graph.add_symbol c) (Graph.symbols p);
  (* the region entry: the first region state in program BFS order *)
  let entry =
    match List.find_opt (fun s -> List.mem s region) (Graph.states_bfs p) with
    | Some s -> s
    | None -> List.hd region
  in
  let states' =
    List.map
      (fun sid ->
        let st' = State.copy (Graph.state p sid) in
        Graph.add_state_with_id c sid st';
        st')
      region
  in
  List.iter
    (fun (e : Graph.istate_edge) ->
      ignore (Graph.add_istate_edge c ~cond:e.cond ~assigns:e.assigns e.src e.dst))
    inner_iedges;
  (* synthetic entry state replicating the assignments of the (unique)
     entering edge, so loop variables stay bound inside the cutout *)
  let entering =
    List.filter
      (fun (e : Graph.istate_edge) -> e.dst = entry && not (List.mem e.src region))
      (Graph.istate_edges p)
  in
  let pre = Graph.add_state c "__cutout_entry" in
  let assigns = match entering with [ e ] -> e.assigns | _ -> [] in
  ignore (Graph.add_istate_edge c ~assigns pre entry);
  Graph.set_start_state c pre;
  let scalars_in_conds =
    List.concat_map (Propagate.interstate_reads p) (inner_iedges @ entering)
  in
  declare_containers p c states' ~input_config ~system_state ~extra:scalars_in_conds;
  {
    program = c;
    kind = Multistate { states = region };
    input_config;
    system_state;
    free_symbols = Graph.all_free_syms c;
  }

let extract ?(options = default_options) p (cs : Diff.change_set) =
  if Diff.is_empty cs then invalid_arg "Cutout.extract: empty change set";
  let node_states = List.sort_uniq compare (List.map fst cs.nodes) in
  match (cs.states, node_states) with
  | [], [ sid ] -> extract_dataflow ~options p ~state:sid ~nodes:(List.map snd cs.nodes)
  | _ -> extract_multistate ~options p (List.sort_uniq compare (cs.states @ node_states))

type shrink_stats = {
  original_bytes : int;
  shrunk_bytes : int;
  resized : (string * int * int) list;
}

(* All subsets touching container [c] anywhere in [g], widened through every
   enclosing map scope so that parameter-dependent inner accesses become
   parameter-free bounding boxes (same over-approximation as memlet
   propagation). *)
let subsets_of g c =
  List.concat_map
    (fun (_, st) ->
      List.concat_map
        (fun (e : State.edge) ->
          (* widen through the deeper endpoint's scope chain *)
          let src = Propagate.scope_chain st e.src and dst = Propagate.scope_chain st e.dst in
          let deeper = if List.length src >= List.length dst then src else dst in
          let pick = function
            | Some (m : Memlet.t) when m.data = c ->
                [ Propagate.widen_through st deeper m.subset ]
            | _ -> []
          in
          pick e.memlet @ pick e.dst_memlet)
        (State.edges st))
    (Graph.states g)

let container_bytes env (_, (d : Graph.datadesc)) =
  Dtype.size_bytes d.dtype * Graph.elements env d.shape

let shrink_containers t ~symbols =
  let env = Symbolic.Expr.Env.of_list symbols in
  let g = Graph.copy t.program in
  let resized = ref [] in
  let original_bytes =
    List.fold_left (fun acc c -> try acc + container_bytes env c with _ -> acc) 0
      (Graph.containers g)
  in
  List.iter
    (fun (name, (d : Graph.datadesc)) ->
      if d.shape <> [] then
        match subsets_of g name with
        | [] -> ()
        | subs -> (
            let dims = List.length d.shape in
            if List.for_all (fun s -> Symbolic.Subset.num_dims s = dims) subs then
              try
                let new_shape =
                  List.mapi
                    (fun i orig ->
                      (* bound = max over accesses of (hi + 1), kept symbolic *)
                      let bound =
                        List.fold_left
                          (fun acc s ->
                            let r = List.nth s i in
                            Symbolic.Expr.max_ acc
                              (Symbolic.Expr.add r.Symbolic.Subset.hi Symbolic.Expr.one))
                          (Symbolic.Expr.int 1) subs
                        |> Symbolic.Expr.simplify
                      in
                      (* must be evaluable and strictly smaller to shrink *)
                      let bv = Symbolic.Expr.eval env bound in
                      let ov = Symbolic.Expr.eval env orig in
                      if bv < ov && bv > 0 then bound else orig)
                    d.shape
                in
                if not (List.for_all2 Symbolic.Expr.equal new_shape d.shape) then begin
                  let old_n = Graph.elements env d.shape and new_n = Graph.elements env new_shape in
                  Graph.add_container g name { d with shape = new_shape };
                  resized := (name, old_n, new_n) :: !resized
                end
              with Symbolic.Expr.Unbound_symbol _ | Symbolic.Expr.Division_by_zero | Failure _ ->
                ()))
    (Graph.containers g);
  let shrunk_bytes =
    List.fold_left (fun acc c -> try acc + container_bytes env c with _ -> acc) 0
      (Graph.containers g)
  in
  ( { t with program = g },
    { original_bytes; shrunk_bytes; resized = List.rev !resized } )

let program_reads = Propagate.program_reads

let input_elements t ~symbols =
  let env = Symbolic.Expr.Env.of_list symbols in
  List.fold_left
    (fun acc c ->
      match Graph.container_opt t.program c with
      | None -> acc
      | Some d -> acc + Graph.elements env d.shape)
    0 t.input_config

let input_bytes t ~symbols =
  let env = Symbolic.Expr.Env.of_list symbols in
  List.fold_left
    (fun acc c ->
      match Graph.container_opt t.program c with
      | None -> acc
      | Some d -> acc + (Dtype.size_bytes d.dtype * Graph.elements env d.shape))
    0 t.input_config

let pp fmt t =
  let kind =
    match t.kind with
    | Dataflow { state; nodes } ->
        Printf.sprintf "dataflow(state %d, %d nodes)" state (List.length nodes)
    | Multistate { states } -> Printf.sprintf "multistate(%d states)" (List.length states)
  in
  Format.fprintf fmt "cutout %s: inputs {%s}; system state {%s}; symbols {%s}" kind
    (String.concat ", " t.input_config)
    (String.concat ", " t.system_state)
    (String.concat ", " t.free_symbols)
