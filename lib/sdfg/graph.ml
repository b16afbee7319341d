type storage = Host | Gpu

type datadesc = {
  shape : Symbolic.Expr.t list;
  dtype : Dtype.t;
  transient : bool;
  storage : storage;
}

type istate_edge = {
  ie_id : int;
  src : int;
  dst : int;
  cond : Symbolic.Cond.t;
  assigns : (string * Symbolic.Expr.t) list;
}

module SMap = Map.Make (String)

type t = {
  nm : string;
  mutable conts : datadesc SMap.t;
  mutable syms : string list;
  states_tbl : (int, State.t) Hashtbl.t;
  iedges : (int, istate_edge) Hashtbl.t;
  mutable start : int;
  mutable next_state : int;
  mutable next_iedge : int;
}

let create nm =
  {
    nm;
    conts = SMap.empty;
    syms = [];
    states_tbl = Hashtbl.create 8;
    iedges = Hashtbl.create 8;
    start = -1;
    next_state = 0;
    next_iedge = 0;
  }

let name t = t.nm

let copy t =
  let states_tbl = Hashtbl.create (Hashtbl.length t.states_tbl) in
  Hashtbl.iter (fun id st -> Hashtbl.replace states_tbl id (State.copy st)) t.states_tbl;
  {
    nm = t.nm;
    conts = t.conts;
    syms = t.syms;
    states_tbl;
    iedges = Hashtbl.copy t.iedges;
    start = t.start;
    next_state = t.next_state;
    next_iedge = t.next_iedge;
  }

let add_container t nm desc = t.conts <- SMap.add nm desc t.conts

let add_array t ?(transient = false) ?(storage = Host) nm dtype shape =
  add_container t nm { shape; dtype; transient; storage }

let add_scalar t ?(transient = false) ?(storage = Host) nm dtype =
  add_container t nm { shape = []; dtype; transient; storage }

let remove_container t nm = t.conts <- SMap.remove nm t.conts
let container t nm = SMap.find nm t.conts
let container_opt t nm = SMap.find_opt nm t.conts
let has_container t nm = SMap.mem nm t.conts
let containers t = SMap.bindings t.conts

let set_transient t nm b =
  t.conts <- SMap.update nm (Option.map (fun d -> { d with transient = b })) t.conts

let add_symbol t s = if not (List.mem s t.syms) then t.syms <- List.sort compare (s :: t.syms)
let symbols t = t.syms

let add_state t lbl =
  let id = t.next_state in
  t.next_state <- id + 1;
  Hashtbl.replace t.states_tbl id (State.create lbl);
  if t.start < 0 then t.start <- id;
  id

let add_state_with_id t id st =
  if Hashtbl.mem t.states_tbl id then invalid_arg "Graph.add_state_with_id: id taken";
  Hashtbl.replace t.states_tbl id st;
  if t.start < 0 then t.start <- id;
  if id >= t.next_state then t.next_state <- id + 1

let state t id = Hashtbl.find t.states_tbl id
let state_opt t id = Hashtbl.find_opt t.states_tbl id

let states t =
  Hashtbl.fold (fun id st acc -> (id, st) :: acc) t.states_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let state_ids t = List.map fst (states t)

let remove_state t id =
  Hashtbl.remove t.states_tbl id;
  let doomed =
    Hashtbl.fold (fun ie e acc -> if e.src = id || e.dst = id then ie :: acc else acc) t.iedges []
  in
  List.iter (Hashtbl.remove t.iedges) doomed

let set_start_state t id = t.start <- id
let start_state t = t.start

let add_istate_edge t ?(cond = Symbolic.Cond.True) ?(assigns = []) src dst =
  if not (Hashtbl.mem t.states_tbl src) then invalid_arg "Graph.add_istate_edge: bad src";
  if not (Hashtbl.mem t.states_tbl dst) then invalid_arg "Graph.add_istate_edge: bad dst";
  let ie_id = t.next_iedge in
  t.next_iedge <- ie_id + 1;
  Hashtbl.replace t.iedges ie_id { ie_id; src; dst; cond; assigns };
  ie_id

let add_state_after t src lbl =
  let id = add_state t lbl in
  ignore (add_istate_edge t src id);
  id

let istate_edges t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.iedges []
  |> List.sort (fun a b -> compare a.ie_id b.ie_id)

let istate_edge t ie = Hashtbl.find t.iedges ie
let remove_istate_edge t ie = Hashtbl.remove t.iedges ie
let out_istate_edges t id = List.filter (fun e -> e.src = id) (istate_edges t)
let in_istate_edges t id = List.filter (fun e -> e.dst = id) (istate_edges t)

let bfs_from next start_set =
  let seen = Hashtbl.create 16 in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.replace seen s ();
        Queue.add s queue
      end)
    start_set;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    order := s :: !order;
    List.iter
      (fun d ->
        if not (Hashtbl.mem seen d) then begin
          Hashtbl.replace seen d ();
          Queue.add d queue
        end)
      (next s)
  done;
  List.rev !order

let states_bfs t =
  if t.start < 0 then []
  else bfs_from (fun s -> List.map (fun e -> e.dst) (out_istate_edges t s)) [ t.start ]

let reachable_states t src =
  bfs_from
    (fun s -> List.map (fun e -> e.dst) (out_istate_edges t s))
    (List.map (fun e -> e.dst) (out_istate_edges t src))

let coreachable_states t dst =
  bfs_from
    (fun s -> List.map (fun e -> e.src) (in_istate_edges t s))
    (List.map (fun e -> e.src) (in_istate_edges t dst))

let external_containers t =
  containers t |> List.filter (fun (_, d) -> not d.transient) |> List.map fst

module Sset = Set.Make (String)

(* Free symbols: every symbol used anywhere — including [Tcode.Ref]s in
   tasklet code that are not fed by an input connector — minus the bound
   ones (map parameters and interstate-assignment targets), plus explicitly
   declared symbols. Container names are also excluded: conditions may read
   scalar containers. Code refs matter for extracted cutouts: a tasklet may
   reference a loop variable whose interstate assignment was cut away, and
   that symbol must surface here so the fuzzer samples it as an input. *)
let all_free_syms t =
  let used = ref Sset.empty in
  let bound = ref Sset.empty in
  let add_used l = used := List.fold_left (fun s x -> Sset.add x s) !used l in
  SMap.iter (fun _ d -> List.iter (fun e -> add_used (Symbolic.Expr.free_syms e)) d.shape) t.conts;
  Hashtbl.iter
    (fun _ st ->
      List.iter
        (fun (e : State.edge) ->
          match e.memlet with
          | None -> ()
          | Some m -> add_used (Symbolic.Subset.free_syms m.subset))
        (State.edges st);
      List.iter
        (fun (nid, n) ->
          match n with
          | Node.Map_entry { params; ranges; _ } ->
              bound := List.fold_left (fun s p -> Sset.add p s) !bound params;
              List.iter
                (fun (r : Symbolic.Subset.range) ->
                  add_used
                    (Symbolic.Expr.free_syms r.lo
                    @ Symbolic.Expr.free_syms r.hi
                    @ Symbolic.Expr.free_syms r.step))
                ranges
          | Node.Tasklet { code; _ } ->
              let in_conns =
                List.filter_map
                  (fun (e : State.edge) -> e.dst_conn)
                  (State.in_edges st nid)
              in
              add_used (List.filter (fun r -> not (List.mem r in_conns)) (Tcode.refs code))
          | _ -> ())
        (State.nodes st))
    t.states_tbl;
  Hashtbl.iter
    (fun _ (e : istate_edge) ->
      add_used (Symbolic.Cond.free_syms e.cond);
      List.iter
        (fun (tgt, rhs) ->
          bound := Sset.add tgt !bound;
          add_used (Symbolic.Expr.free_syms rhs))
        e.assigns)
    t.iedges;
  let conts = SMap.fold (fun k _ acc -> Sset.add k acc) t.conts Sset.empty in
  Sset.elements
    (Sset.union (Sset.of_list t.syms) (Sset.diff !used (Sset.union !bound conts)))
