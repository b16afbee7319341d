open Sdfg

type stats = {
  original_elements : int;
  minimized_elements : int;
  extension : int list;
  cut_value : Flownet.Cap.t;
}

let container_elements g env c =
  match Graph.container_opt g c with
  | None -> Flownet.Cap.Inf
  | Some d -> (
      try Flownet.Cap.finite (Graph.elements env d.shape)
      with Symbolic.Expr.Unbound_symbol _ | Symbolic.Expr.Division_by_zero -> Flownet.Cap.Inf)

let memlet_volume env (m : Memlet.t option) =
  match m with
  | None -> Flownet.Cap.zero
  | Some m -> (
      try Flownet.Cap.finite (max 0 (Symbolic.Subset.volume_eval env m.subset))
      with Symbolic.Expr.Unbound_symbol _ | Symbolic.Expr.Division_by_zero -> Flownet.Cap.Inf)

let is_external g c =
  match Graph.container_opt g c with Some d -> not d.transient | None -> false

(* Build the prepared flow network of Sec. 4.2 and solve. *)
let minimize_dataflow p (cut : Cutout.t) ~symbols sid cnodes =
  let env = Symbolic.Expr.Env.of_list symbols in
  let st = Graph.state p sid in
  let in_c n = List.mem n cnodes in
  let fg = Flownet.Maxflow.create () in
  let s = Flownet.Maxflow.add_node fg in
  let t = Flownet.Maxflow.add_node fg in
  let outside = List.filter (fun n -> not (in_c n)) (State.node_ids st) in
  let fid = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace fid n (Flownet.Maxflow.add_node fg)) outside;
  let node_id n = Hashtbl.find fid n in
  (* Scope-internal edges carry per-iteration subsets (volume 1 per map
     point); a cut through the inside of a map scope is never meaningful —
     cutout extraction expands to whole scopes anyway — so such edges get
     infinite capacity and cuts land on the top-level dataflow. *)
  let scope_memo = Hashtbl.create 32 in
  let scoped n =
    match Hashtbl.find_opt scope_memo n with
    | Some v -> v
    | None ->
        let v = State.scope_of st n <> None in
        Hashtbl.replace scope_memo n v;
        v
  in
  (* original dataflow edges among outside nodes; capacities per Sec. 4.2 *)
  List.iter
    (fun (e : State.edge) ->
      if (not (in_c e.src)) && not (in_c e.dst) then begin
        let cap =
          if scoped e.src || scoped e.dst then Flownet.Cap.Inf
          else
            match State.node st e.src with
            | Node.Access _ -> Flownet.Cap.Inf (* cut before a data node, never after *)
            | _ -> (
                (* edges into external data nodes cannot be cut either *)
                match State.node st e.dst with
                | Node.Access c when is_external p c -> Flownet.Cap.Inf
                | _ -> memlet_volume env e.memlet)
        in
        Flownet.Maxflow.add_edge fg (node_id e.src) (node_id e.dst) cap
      end)
    (State.edges st);
  (* source hookups *)
  List.iter
    (fun n ->
      let is_src = State.in_edges st n = [] in
      match State.node st n with
      | Node.Access c when is_src || is_external p c ->
          Flownet.Maxflow.add_edge fg s (node_id n) (container_elements p env c)
      | _ -> if is_src then Flownet.Maxflow.add_edge fg s (node_id n) Flownet.Cap.zero)
    outside;
  (* sink hookups: input-configuration access nodes inside the cutout *)
  List.iter
    (fun n ->
      match State.node st n with
      | Node.Access c when in_c n && List.mem c cut.Cutout.input_config ->
          let ins = State.in_edges st n in
          if ins = [] then
            (* a pure input: unavoidable cost *)
            Flownet.Maxflow.add_edge fg s t (container_elements p env c)
          else
            List.iter
              (fun (e : State.edge) ->
                if not (in_c e.src) then
                  Flownet.Maxflow.add_edge fg (node_id e.src) t
                    (memlet_volume env (Propagate.written_memlet st e)))
              ins
      | _ -> ())
    (State.node_ids st);
  let result = Flownet.Maxflow.max_flow fg ~s ~t in
  (* extension: sink-side nodes that can reach T through the prepared graph *)
  let reaches_t = Hashtbl.create 32 in
  Hashtbl.replace reaches_t t ();
  (* run a reverse reachability on the arcs we added; rebuild adjacency *)
  let rev = Hashtbl.create 64 in
  let add_rev u v = Hashtbl.replace rev v (u :: (Option.value ~default:[] (Hashtbl.find_opt rev v))) in
  (* recreate the same arcs for reverse traversal *)
  List.iter
    (fun (e : State.edge) ->
      if (not (in_c e.src)) && not (in_c e.dst) then add_rev (node_id e.src) (node_id e.dst))
    (State.edges st);
  List.iter
    (fun n ->
      match State.node st n with
      | Node.Access c when in_c n && List.mem c cut.Cutout.input_config ->
          List.iter
            (fun (e : State.edge) -> if not (in_c e.src) then add_rev (node_id e.src) t)
            (State.in_edges st n)
      | _ -> ())
    (State.node_ids st);
  let queue = Queue.create () in
  Queue.add t queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun u ->
        if not (Hashtbl.mem reaches_t u) then begin
          Hashtbl.replace reaches_t u ();
          Queue.add u queue
        end)
      (Option.value ~default:[] (Hashtbl.find_opt rev v))
  done;
  let extension =
    List.filter
      (fun n ->
        let id = node_id n in
        (not result.source_side.(id)) && Hashtbl.mem reaches_t id)
      outside
  in
  let original_elements = Cutout.input_elements cut ~symbols in
  if extension = [] then
    ( cut,
      {
        original_elements;
        minimized_elements = original_elements;
        extension = [];
        cut_value = result.max_flow;
      } )
  else begin
    let cut' =
      Cutout.extract_dataflow ~options:{ Cutout.symbols } p ~state:sid ~nodes:(cnodes @ extension)
    in
    let minimized_elements = Cutout.input_elements cut' ~symbols in
    if minimized_elements < original_elements then
      ( cut',
        { original_elements; minimized_elements; extension; cut_value = result.max_flow } )
    else
      ( cut,
        {
          original_elements;
          minimized_elements = original_elements;
          extension = [];
          cut_value = result.max_flow;
        } )
  end

let minimize p (cut : Cutout.t) ~symbols =
  match cut.kind with
  | Cutout.Multistate _ ->
      let n = Cutout.input_elements cut ~symbols in
      ( cut,
        { original_elements = n; minimized_elements = n; extension = []; cut_value = Flownet.Cap.zero }
      )
  | Cutout.Dataflow { state; nodes } -> minimize_dataflow p cut ~symbols state nodes
