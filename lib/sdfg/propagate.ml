open Symbolic

let widen_range ~param ~(prange : Subset.range) (r : Subset.range) =
  let has e = List.mem param (Expr.free_syms e) in
  if not (has r.lo || has r.hi || has r.step) then r
  else
    match (r.lo, r.hi, r.step, prange.step) with
    | Expr.Sym p, Expr.Sym p', Expr.Int 1, Expr.Int s when p = param && p' = param && s > 1 ->
        (* the index is the bare parameter over a strided increasing range:
           its image is exactly the map range, stride included. Collapsing
           the stride here (as the general case below must) would make a
           map whose step was widened to skip iterations summarize
           identically to the dense original — the one dataflow difference
           stride erasure cannot be allowed to hide. *)
        { Subset.lo = prange.lo; hi = prange.hi; step = prange.step }
    | Expr.Sym p, hi, Expr.Int s, Expr.Int ps
      when p = param && s > 1 && ps > 0 && ps mod s = 0
           && (match hi with
              | Expr.Min (Expr.Add (Expr.Sym q, Expr.Int k), h)
              | Expr.Min (h, Expr.Add (Expr.Sym q, Expr.Int k))
              | Expr.Min (Expr.Add (Expr.Int k, Expr.Sym q), h)
              | Expr.Min (h, Expr.Add (Expr.Int k, Expr.Sym q)) ->
                  q = param && k >= ps - 1 && h = prange.hi
                  && not (List.mem param (Expr.free_syms h))
              | _ -> false) ->
        (* a strided inner range of a tile map, [p : min(p + k, H) : s] over
           tiles p ∈ [lo : H : ps]: with the tile span covering a whole period
           (k ≥ ps − 1), the per-tile grids abut at matching residues
           (ps mod s = 0) and the capped last tile reaches H, so the union is
           exactly [lo : H : s] — the tiled image of a stride the mutation
           widened stays strided instead of collapsing to the dense box. *)
        { Subset.lo = prange.lo; hi = prange.hi; step = Expr.Int s }
    | _ -> begin
    (* Substitute both endpoints of the parameter's span and take the
       enclosing interval; handles decreasing ranges and negative
       coefficients conservatively. A parameter occurring in the stride
       cannot be widened stride-aware, so the stride collapses to 1 —
       a superset of every per-parameter instantiation. *)
    let at v e = Expr.simplify (Expr.subst (Expr.Env.singleton param v) e) in
    let lo1 = at prange.lo r.lo and lo2 = at prange.hi r.lo in
    let hi1 = at prange.lo r.hi and hi2 = at prange.hi r.hi in
    {
      Subset.lo = Expr.simplify (Expr.min_ lo1 lo2);
      hi = Expr.simplify (Expr.max_ hi1 hi2);
      step = Expr.one;
    }
  end

let through_map ~params ~ranges subset =
  if List.length params <> List.length ranges then
    invalid_arg
      (Printf.sprintf "Propagate.through_map: %d params vs %d ranges (malformed map scope)"
         (List.length params) (List.length ranges));
  List.fold_left2
    (fun acc param prange -> List.map (widen_range ~param ~prange) acc)
    subset params ranges

let memlet_through_map ~params ~ranges (m : Memlet.t) =
  { m with subset = through_map ~params ~ranges m.subset }

(* ---- full bottom-up propagation --------------------------------------- *)

type kind = Read | Write of Memlet.wcr option

type access = { container : string; subset : Subset.t; kind : kind; phase : int }

let scope_chain st n =
  let rec go n acc =
    match State.scope_of st n with None -> List.rev acc | Some e -> go e (e :: acc)
  in
  go n []

(* Widen a subset through a chain of map-entry scopes, innermost first. *)
let widen_chain st chain subset =
  List.fold_left
    (fun sub entry ->
      match State.node_opt st entry with
      | Some (Node.Map_entry info) -> through_map ~params:info.params ~ranges:info.ranges sub
      | _ -> sub)
    subset chain

let state_accesses g st =
  (* phase = topological position of the access's outermost enclosing scope
     entry (or of the leaf node itself at state top level): everything inside
     one parallel scope shares a phase, sequenced groups get distinct ones *)
  let topo_pos =
    let tbl = Hashtbl.create 32 in
    List.iteri (fun i n -> Hashtbl.replace tbl n i) (State.topological st);
    fun n -> match Hashtbl.find_opt tbl n with Some i -> i | None -> 0
  in
  let phase_of node chain =
    match List.rev chain with [] -> topo_pos node | outermost :: _ -> topo_pos outermost
  in
  List.concat_map
    (fun (e : State.edge) ->
      let acc node container subset kind =
        let chain = scope_chain st node in
        {
          container;
          subset = widen_chain st chain subset;
          kind;
          phase = phase_of node chain;
        }
      in
      let src = State.node_opt st e.src and dst = State.node_opt st e.dst in
      match (src, dst, e.memlet) with
      | _, Some (Node.Tasklet _ | Node.Library _), Some m -> [ acc e.dst m.data m.subset Read ]
      | Some (Node.Tasklet _ | Node.Library _), _, Some m ->
          [ acc e.src m.data m.subset (Write m.wcr) ]
      | Some (Node.Access _), Some (Node.Access d), Some m ->
          let w =
            match e.dst_memlet with
            | Some dm -> acc e.dst dm.data dm.subset (Write dm.wcr)
            | None -> (
                match Graph.container_opt g d with
                | Some desc -> acc e.dst d (Subset.full desc.shape) (Write None)
                | None -> acc e.dst d [] (Write None))
          in
          [ acc e.src m.data m.subset Read; w ]
      | _ -> [])
    (State.edges st)

type summary = {
  reads : (string * Subset.t) list;
  writes : (string * Subset.t) list;
  wcr_writes : string list;
  order : (string * [ `R | `W | `RW ]) list;
}

(* Union two propagated subsets of one container; a dimensionality clash
   (which validation forbids, but cutouts may transiently exhibit) widens to
   the container's full extent rather than failing. *)
let union_into g bounds container a b =
  match Subset.union ~bounds a b with
  | u -> u
  | exception Invalid_argument _ -> (
      match Graph.container_opt g container with
      | Some desc -> Subset.full desc.shape
      | None -> [])

let summarize ?(bounds = Expr.unbounded) ~accesses g =
  let state_order =
    let bfs = Graph.states_bfs g in
    bfs @ List.filter (fun s -> not (List.mem s bfs)) (Graph.state_ids g)
  in
  (* collect every propagated access with a graph-global phase number *)
  let all = ref [] in
  let offset = ref 0 in
  List.iter
    (fun sid ->
      let accs = accesses sid (Graph.state g sid) in
      let maxp = List.fold_left (fun m a -> Stdlib.max m a.phase) (-1) accs in
      List.iter (fun a -> all := { a with phase = a.phase + !offset } :: !all) accs;
      (* interstate edges leaving this state may read scalar containers in
         their conditions and assignments: sequence those after the state *)
      let edge_phase = !offset + maxp + 1 in
      List.iter
        (fun (e : Graph.istate_edge) ->
          let syms =
            Cond.free_syms e.cond
            @ List.concat_map (fun (_, rhs) -> Expr.free_syms rhs) e.assigns
          in
          List.iter
            (fun s ->
              if Graph.has_container g s then
                all :=
                  { container = s; subset = Subset.scalar; kind = Read; phase = edge_phase }
                  :: !all)
            (List.sort_uniq compare syms))
        (Graph.out_istate_edges g sid);
      offset := edge_phase + 1)
    state_order;
  let all = List.rev !all in
  let containers =
    List.sort_uniq compare (List.map (fun a -> a.container) all)
  in
  let union_of sel =
    List.filter_map
      (fun c ->
        match List.filter (fun a -> a.container = c && sel a.kind) all with
        | [] -> None
        | first :: rest ->
            let u =
              List.fold_left
                (fun acc a -> union_into g bounds c acc a.subset)
                (Subset.normalize ~bounds first.subset)
                rest
            in
            Some (c, Subset.normalize ~bounds u))
      containers
  in
  (* a WCR write accumulates into its target, so it also reads it *)
  let reads =
    union_of (function Read | Write (Some _) -> true | Write None -> false)
  in
  let writes = union_of (function Write _ -> true | Read -> false) in
  let wcr_writes =
    List.sort_uniq compare
      (List.filter_map
         (fun a -> match a.kind with Write (Some _) -> Some a.container | _ -> None)
         all)
  in
  (* ordering signature: per phase, per container, one R/W/RW event; then
     collapse consecutive duplicates per container so splitting one phase
     into several with the same footprint is order-neutral *)
  let phases = List.sort_uniq compare (List.map (fun a -> a.phase) all) in
  let raw_events =
    List.concat_map
      (fun p ->
        let here = List.filter (fun a -> a.phase = p) all in
        List.filter_map
          (fun c ->
            let mine = List.filter (fun a -> a.container = c) here in
            if mine = [] then None
            else
              let r = List.exists (fun a -> a.kind = Read) mine in
              let w = List.exists (fun a -> match a.kind with Write _ -> true | _ -> false) mine in
              Some (c, if r && w then `RW else if w then `W else `R))
          (List.sort_uniq compare (List.map (fun a -> a.container) here)))
      phases
  in
  let order =
    List.rev
      (List.fold_left
         (fun acc (c, ev) ->
           match List.assoc_opt c acc with
           | Some prev when prev = ev -> acc
           | _ -> (c, ev) :: acc)
         [] raw_events)
  in
  { reads; writes; wcr_writes; order }

let free_syms_of_summary s =
  List.sort_uniq compare
    (List.concat_map
       (fun (_, sub) -> Subset.free_syms sub)
       (s.reads @ s.writes))
