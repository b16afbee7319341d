type edge = {
  e_id : int;
  src : int;
  src_conn : string option;
  dst : int;
  dst_conn : string option;
  memlet : Memlet.t option;
  dst_memlet : Memlet.t option;
}

(* The views a state derives from its two tables, built by the first query
   after a mutation and dropped by every mutator. Per-node arrays are indexed
   by a node's position in [x_ids], so any id values fit. Plain data only,
   with no closure and no exception: the index crosses [Marshal] like the
   tables do. Only answers computed to completion are stored, each with one
   assignment, so an exception raised mid-query (a cycle, an overlap, an
   asynchronous deadline) leaves nothing behind. *)
type index = {
  x_nodes : (int * Node.t) list;  (* sorted by id *)
  x_ids : int array;  (* the same ids: a node's position is its slot *)
  x_edges : edge list;  (* sorted by edge id *)
  x_ins : edge list array;  (* by destination, in edge-id order *)
  x_outs : edge list array;  (* by source, in edge-id order *)
  x_entries : int list;  (* map entries, by id *)
  x_exits : (int * int) list;  (* (entry, exit) *)
  mutable x_topo : int list option;
  x_scope_nodes : int list option array;  (* by entry *)
  x_scope_of : int option option array;  (* by node *)
}

type t = {
  lbl : string;
  nodes : (int, Node.t) Hashtbl.t;
  edges_tbl : (int, edge) Hashtbl.t;
  mutable next_node : int;
  mutable next_edge : int;
  mutable index : index option;
}

let create lbl =
  { lbl; nodes = Hashtbl.create 16; edges_tbl = Hashtbl.create 16; next_node = 0; next_edge = 0; index = None }

let label t = t.lbl

(* the copy has the same tables, so it shares the index until either side
   mutates and drops its reference *)
let copy t =
  {
    lbl = t.lbl;
    nodes = Hashtbl.copy t.nodes;
    edges_tbl = Hashtbl.copy t.edges_tbl;
    next_node = t.next_node;
    next_edge = t.next_edge;
    index = t.index;
  }

(* Every mutator drops the index before it touches a table, so an exception
   between the two leaves no stale answer. *)
let touch t = t.index <- None

let add_node t n =
  touch t;
  let id = t.next_node in
  t.next_node <- id + 1;
  Hashtbl.replace t.nodes id n;
  id

let add_node_with_id t id n =
  if Hashtbl.mem t.nodes id then invalid_arg "State.add_node_with_id: id taken";
  touch t;
  Hashtbl.replace t.nodes id n;
  if id >= t.next_node then t.next_node <- id + 1

let replace_node t id n =
  if not (Hashtbl.mem t.nodes id) then invalid_arg "State.replace_node: no such node";
  touch t;
  Hashtbl.replace t.nodes id n

let add_edge t ?src_conn ?dst_conn ?memlet ?dst_memlet src dst =
  if not (Hashtbl.mem t.nodes src) then invalid_arg "State.add_edge: bad src";
  if not (Hashtbl.mem t.nodes dst) then invalid_arg "State.add_edge: bad dst";
  touch t;
  let e_id = t.next_edge in
  t.next_edge <- e_id + 1;
  Hashtbl.replace t.edges_tbl e_id { e_id; src; src_conn; dst; dst_conn; memlet; dst_memlet };
  e_id

let remove_edge t e_id =
  touch t;
  Hashtbl.remove t.edges_tbl e_id

let remove_node t id =
  touch t;
  Hashtbl.remove t.nodes id;
  let doomed =
    Hashtbl.fold (fun e_id e acc -> if e.src = id || e.dst = id then e_id :: acc else acc) t.edges_tbl []
  in
  List.iter (Hashtbl.remove t.edges_tbl) doomed

let set_edge_memlet t e_id m =
  match Hashtbl.find_opt t.edges_tbl e_id with
  | None -> invalid_arg "State.set_edge_memlet: no such edge"
  | Some e ->
      touch t;
      Hashtbl.replace t.edges_tbl e_id { e with memlet = m }

let node t id = Hashtbl.find t.nodes id
let node_opt t id = Hashtbl.find_opt t.nodes id
let has_node t id = Hashtbl.mem t.nodes id
let num_nodes t = Hashtbl.length t.nodes
let num_edges t = Hashtbl.length t.edges_tbl

(* the position of [id] in the sorted [ids], or -1 when it is absent *)
let position ids id =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      if ids.(mid) = id then mid else if ids.(mid) < id then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ids)

let build t =
  let nodes =
    Hashtbl.fold (fun id n acc -> (id, n) :: acc) t.nodes []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let ids = Array.of_list (List.map fst nodes) in
  let edges =
    Hashtbl.fold (fun _ e acc -> e :: acc) t.edges_tbl []
    |> List.sort (fun a b -> Int.compare a.e_id b.e_id)
  in
  let n = Array.length ids in
  let ins = Array.make n [] and outs = Array.make n [] in
  (* every edge joins two nodes: the mutators keep it so *)
  List.iter
    (fun e ->
      let d = position ids e.dst and s = position ids e.src in
      ins.(d) <- e :: ins.(d);
      outs.(s) <- e :: outs.(s))
    (List.rev edges);
  {
    x_nodes = nodes;
    x_ids = ids;
    x_edges = edges;
    x_ins = ins;
    x_outs = outs;
    x_entries =
      List.filter_map (fun (id, n) -> if Node.is_map_entry n then Some id else None) nodes;
    (* the node table's fold order, latest first: of several exits for one
       entry, [exit_of] answers the last one the fold visits *)
    x_exits =
      Hashtbl.fold
        (fun id n acc -> match n with Node.Map_exit { entry } -> (entry, id) :: acc | _ -> acc)
        t.nodes [];
    x_topo = None;
    x_scope_nodes = Array.make n None;
    x_scope_of = Array.make n None;
  }

let index t =
  match t.index with
  | Some x -> x
  | None ->
      let x = build t in
      t.index <- Some x;
      x

let slot x id = position x.x_ids id

(* [slots] at node [id], computed and stored on a miss; an id that is not
   a node is computed every time *)
let memo x slots id compute =
  match slot x id with
  | -1 -> compute ()
  | i -> (
      match slots.(i) with
      | Some v -> v
      | None ->
          let v = compute () in
          slots.(i) <- Some v;
          v)

let nodes t = (index t).x_nodes
let node_ids t = List.map fst (nodes t)
let edges t = (index t).x_edges
let edge t e_id = Hashtbl.find t.edges_tbl e_id
let adjacent x slots id = match slot x id with -1 -> [] | i -> slots.(i)

let in_edges t id =
  let x = index t in
  adjacent x x.x_ins id

let out_edges t id =
  let x = index t in
  adjacent x x.x_outs id

let dedup_sorted l = List.sort_uniq compare l
let predecessors t id = dedup_sorted (List.map (fun e -> e.src) (in_edges t id))
let successors t id = dedup_sorted (List.map (fun e -> e.dst) (out_edges t id))
let source_nodes t = List.filter (fun id -> in_edges t id = []) (node_ids t)
let sink_nodes t = List.filter (fun id -> out_edges t id = []) (node_ids t)

(* Kahn's algorithm over node ids in ascending order, each edge decrementing
   its destination once *)
let kahn t x =
  let indeg = Array.make (Array.length x.x_ids) 0 in
  List.iter (fun e -> let d = slot x e.dst in indeg.(d) <- indeg.(d) + 1) x.x_edges;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let order = ref [] in
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order := x.x_ids.(i) :: !order;
    incr count;
    List.iter
      (fun e ->
        let d = slot x e.dst in
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then Queue.add d queue)
      x.x_outs.(i)
  done;
  if !count <> Array.length x.x_ids then failwith ("State.topological: cycle in state " ^ t.lbl);
  List.rev !order

let topological t =
  let x = index t in
  match x.x_topo with
  | Some order -> order
  | None ->
      let order = kahn t x in
      x.x_topo <- Some order;
      order

let exit_of t entry =
  match List.assoc_opt entry (index t).x_exits with Some id -> id | None -> raise Not_found

(* Nodes strictly between a map entry and its exit: forward reachability from
   the entry, stopping at the exit. Builder discipline guarantees all paths
   from the entry reach the exit. *)
let scope_nodes t entry =
  let x = index t in
  memo x x.x_scope_nodes entry (fun () ->
      let ex = exit_of t entry in
      let seen = Array.make (Array.length x.x_ids) false in
      let rec go i =
        if x.x_ids.(i) <> ex && not seen.(i) then begin
          seen.(i) <- true;
          List.iter (fun e -> go (slot x e.dst)) x.x_outs.(i)
        end
      in
      List.iter (fun e -> go (slot x e.dst)) (adjacent x x.x_outs entry);
      let inside = ref [] in
      for i = Array.length seen - 1 downto 0 do
        if seen.(i) && x.x_ids.(i) <> entry then inside := x.x_ids.(i) :: !inside
      done;
      !inside)

let scope_of t n =
  let x = index t in
  memo x x.x_scope_of n (fun () ->
      (* innermost enclosing entry: the entry e with n in scope_nodes e and
         no other enclosing entry also inside e's scope. Entry/exit nodes
         belong to the parent scope: scope_nodes of an outer entry contains
         nested entries/exits, giving them their parent here *)
      let enclosing = List.filter (fun e -> List.mem n (scope_nodes t e)) x.x_entries in
      (* the innermost one is enclosed by all the others *)
      match enclosing with
      | [] -> None
      | [ e ] -> Some e
      | es ->
          Some
            (List.find
               (fun e -> List.for_all (fun e' -> e = e' || List.mem e (scope_nodes t e')) es)
               es))

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
  let outside set n = if List.mem n set then None else Some n in
  let rec grow set frontier =
    let next =
      List.concat_map
        (fun n ->
          if not (routing n) then []
          else
            List.filter_map (fun e -> outside set e.dst) (out_edges t n)
            @ List.filter_map (fun e -> outside set e.src) (in_edges t n))
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
