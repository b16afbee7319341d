type edge = {
  e_id : int;
  src : int;
  src_conn : string option;
  dst : int;
  dst_conn : string option;
  memlet : Memlet.t option;
  dst_memlet : Memlet.t option;
}

type t = {
  lbl : string;
  nodes : (int, Node.t) Hashtbl.t;
  edges_tbl : (int, edge) Hashtbl.t;
  mutable next_node : int;
  mutable next_edge : int;
}

let create lbl = { lbl; nodes = Hashtbl.create 16; edges_tbl = Hashtbl.create 16; next_node = 0; next_edge = 0 }
let label t = t.lbl

let copy t =
  {
    lbl = t.lbl;
    nodes = Hashtbl.copy t.nodes;
    edges_tbl = Hashtbl.copy t.edges_tbl;
    next_node = t.next_node;
    next_edge = t.next_edge;
  }

let add_node t n =
  let id = t.next_node in
  t.next_node <- id + 1;
  Hashtbl.replace t.nodes id n;
  id

let add_node_with_id t id n =
  if Hashtbl.mem t.nodes id then invalid_arg "State.add_node_with_id: id taken";
  Hashtbl.replace t.nodes id n;
  if id >= t.next_node then t.next_node <- id + 1

let replace_node t id n =
  if not (Hashtbl.mem t.nodes id) then invalid_arg "State.replace_node: no such node";
  Hashtbl.replace t.nodes id n

let add_edge t ?src_conn ?dst_conn ?memlet ?dst_memlet src dst =
  if not (Hashtbl.mem t.nodes src) then invalid_arg "State.add_edge: bad src";
  if not (Hashtbl.mem t.nodes dst) then invalid_arg "State.add_edge: bad dst";
  let e_id = t.next_edge in
  t.next_edge <- e_id + 1;
  Hashtbl.replace t.edges_tbl e_id { e_id; src; src_conn; dst; dst_conn; memlet; dst_memlet };
  e_id

let remove_edge t e_id = Hashtbl.remove t.edges_tbl e_id

let remove_node t id =
  Hashtbl.remove t.nodes id;
  let doomed =
    Hashtbl.fold (fun e_id e acc -> if e.src = id || e.dst = id then e_id :: acc else acc) t.edges_tbl []
  in
  List.iter (Hashtbl.remove t.edges_tbl) doomed

let set_edge_memlet t e_id m =
  match Hashtbl.find_opt t.edges_tbl e_id with
  | None -> invalid_arg "State.set_edge_memlet: no such edge"
  | Some e -> Hashtbl.replace t.edges_tbl e_id { e with memlet = m }

let node t id = Hashtbl.find t.nodes id
let node_opt t id = Hashtbl.find_opt t.nodes id
let has_node t id = Hashtbl.mem t.nodes id

let nodes t =
  Hashtbl.fold (fun id n acc -> (id, n) :: acc) t.nodes []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let node_ids t = List.map fst (nodes t)

let edges t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.edges_tbl []
  |> List.sort (fun a b -> compare a.e_id b.e_id)

let edge t e_id = Hashtbl.find t.edges_tbl e_id
let in_edges t id = List.filter (fun e -> e.dst = id) (edges t)
let out_edges t id = List.filter (fun e -> e.src = id) (edges t)

let dedup_sorted l = List.sort_uniq compare l
let predecessors t id = dedup_sorted (List.map (fun e -> e.src) (in_edges t id))
let successors t id = dedup_sorted (List.map (fun e -> e.dst) (out_edges t id))
let num_nodes t = Hashtbl.length t.nodes
let num_edges t = Hashtbl.length t.edges_tbl
let source_nodes t = List.filter (fun id -> in_edges t id = []) (node_ids t)
let sink_nodes t = List.filter (fun id -> out_edges t id = []) (node_ids t)

let topological t =
  let indeg = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace indeg id 0) (node_ids t);
  List.iter
    (fun e -> Hashtbl.replace indeg e.dst (Hashtbl.find indeg e.dst + 1))
    (edges t);
  let ready =
    List.filter (fun id -> Hashtbl.find indeg id = 0) (node_ids t)
  in
  let queue = Queue.create () in
  List.iter (fun id -> Queue.add id queue) ready;
  let order = ref [] in
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    order := id :: !order;
    incr count;
    List.iter
      (fun s ->
        let d = Hashtbl.find indeg s - 1 in
        Hashtbl.replace indeg s d;
        if d = 0 then Queue.add s queue)
      (* count multiplicity: each edge decrements once *)
      (List.map (fun e -> e.dst) (out_edges t id))
  done;
  if !count <> num_nodes t then failwith ("State.topological: cycle in state " ^ t.lbl);
  List.rev !order

let exit_of t entry =
  let found =
    Hashtbl.fold
      (fun id n acc ->
        match n with Node.Map_exit { entry = e } when e = entry -> Some id | _ -> acc)
      t.nodes None
  in
  match found with Some id -> id | None -> raise Not_found

(* Nodes strictly between a map entry and its exit: forward reachability from
   the entry, stopping at the exit. Builder discipline guarantees all paths
   from the entry reach the exit. *)
let scope_nodes t entry =
  let ex = exit_of t entry in
  let seen = Hashtbl.create 16 in
  let rec go id =
    if id <> ex && not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter go (successors t id)
    end
  in
  List.iter go (successors t entry);
  Hashtbl.fold (fun id () acc -> id :: acc) seen []
  |> List.filter (fun id -> id <> entry)
  |> List.sort compare

let scope_of t n =
  (* innermost enclosing entry: the entry e with n in scope_nodes e and no
     other enclosing entry also inside e's scope *)
  let entries =
    List.filter_map (fun (id, nd) -> if Node.is_map_entry nd then Some id else None) (nodes t)
  in
  (* entry/exit nodes belong to the parent scope: scope_nodes of an outer
     entry contains nested entries/exits, giving them their parent here *)
  let enclosing = List.filter (fun e -> List.mem n (scope_nodes t e)) entries in
  (* the innermost one is enclosed by all the others *)
  match enclosing with
  | [] -> None
  | [ e ] -> Some e
  | es ->
      let innermost =
        List.find
          (fun e ->
            List.for_all (fun e' -> e = e' || List.mem e (scope_nodes t e')) es)
          es
      in
      Some innermost

(* Closure of a node set over routing nodes (map entries/exits): any node
   adjacent to a routing node already in the set joins it. Cutout extraction
   keeps whole scopes, so the closure of a change set is exactly the node set
   a cutout built from that change set covers. Seeds absent from the state
   (e.g. nodes a transformation removed) contribute nothing but stay in the
   result. *)
let scope_closure t seeds =
  let routing n =
    match node_opt t n with
    | Some (Node.Map_entry _) | Some (Node.Map_exit _) -> true
    | _ -> false
  in
  let in_set set n = List.mem n set in
  let rec grow set frontier =
    let next =
      List.concat_map
        (fun n ->
          if not (routing n) then []
          else
            List.filter_map
              (fun e ->
                if e.src = n && not (in_set set e.dst) then Some e.dst
                else if e.dst = n && not (in_set set e.src) then Some e.src
                else None)
              (edges t))
        frontier
      |> List.sort_uniq compare
    in
    match next with [] -> set | _ -> grow (next @ set) next
  in
  grow seeds seeds

let access_nodes t name =
  List.filter_map
    (fun (id, n) -> match n with Node.Access d when d = name -> Some id | _ -> None)
    (nodes t)

let referenced_containers t =
  edges t
  |> List.filter_map (fun e -> Option.map (fun (m : Memlet.t) -> m.data) e.memlet)
  |> List.sort_uniq compare
