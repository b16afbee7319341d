open Sdfg

type site = { state : int; nodes : int list; states : int list; descr : string }

let dataflow_site ~state ~nodes ~descr = { state; nodes; states = []; descr }
let controlflow_site ~states ~descr = { state = -1; nodes = []; states; descr }

let site_slug s =
  if s.state >= 0 then
    Printf.sprintf "s%d_n%s" s.state (String.concat "-" (List.map string_of_int s.nodes))
  else Printf.sprintf "states_%s" (String.concat "-" (List.map string_of_int s.states))

let pp_site fmt s =
  if s.state >= 0 then
    Format.fprintf fmt "%s @@ state %d nodes [%s]" s.descr s.state
      (String.concat "," (List.map string_of_int s.nodes))
  else
    Format.fprintf fmt "%s @@ states [%s]" s.descr
      (String.concat "," (List.map string_of_int s.states))

exception Cannot_apply of string

type certify_hint = Preserves_sets | Known_unsound of string

type t = {
  name : string;
  find : Graph.t -> site list;
  apply : Graph.t -> site -> Diff.change_set;
  certify_hint : certify_hint option;
}

let apply_copy x g site =
  let g' = Graph.copy g in
  match x.apply g' site with
  | cs -> Ok (g', cs)
  | exception Cannot_apply msg -> Error msg
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg
  | exception Not_found -> Error "transformation failed with Not_found"

let subst_symbol_in_state st sym expr =
  let map = Symbolic.Expr.Env.singleton sym expr in
  List.iter
    (fun (e : State.edge) ->
      let s m = Option.map (Memlet.subst map) m in
      if e.memlet <> None || e.dst_memlet <> None then begin
        State.remove_edge st e.e_id;
        ignore
          (State.add_edge st ?src_conn:e.src_conn ?dst_conn:e.dst_conn ?memlet:(s e.memlet)
             ?dst_memlet:(s e.dst_memlet) e.src e.dst)
      end)
    (State.edges st);
  List.iter
    (fun (id, n) ->
      match n with
      | Node.Map_entry info ->
          let ranges =
            List.map
              (fun (r : Symbolic.Subset.range) ->
                {
                  Symbolic.Subset.lo = Symbolic.Expr.subst map r.lo;
                  hi = Symbolic.Expr.subst map r.hi;
                  step = Symbolic.Expr.subst map r.step;
                })
              info.ranges
          in
          State.replace_node st id (Node.Map_entry { info with ranges })
      | Node.Tasklet { label; code } -> (
          match Symbolic.Expr.is_constant expr with
          | Some c when List.mem sym (Tcode.refs code) ->
              State.replace_node st id
                (Node.Tasklet { label; code = Tcode.subst_const sym (float_of_int c) code })
          | _ -> ())
      | _ -> ())
    (State.nodes st)

let rename_container_in_state st ~from ~into =
  List.iter
    (fun (e : State.edge) ->
      let r m = Option.map (Memlet.rename_data ~from ~into) m in
      if e.memlet <> None || e.dst_memlet <> None then begin
        State.remove_edge st e.e_id;
        ignore
          (State.add_edge st ?src_conn:e.src_conn ?dst_conn:e.dst_conn ?memlet:(r e.memlet)
             ?dst_memlet:(r e.dst_memlet) e.src e.dst)
      end)
    (State.edges st);
  List.iter
    (fun (id, n) ->
      match n with
      | Node.Access d when d = from -> State.replace_node st id (Node.Access into)
      | _ -> ())
    (State.nodes st)

let copy_state_into ~src ~dst =
  let mapping =
    List.map (fun (id, n) -> (id, State.add_node dst n)) (State.nodes src)
  in
  (* fix map-exit entry references to the new ids *)
  List.iter
    (fun (old_id, new_id) ->
      match State.node dst new_id with
      | Node.Map_exit { entry } ->
          ignore old_id;
          State.replace_node dst new_id (Node.Map_exit { entry = List.assoc entry mapping })
      | _ -> ())
    mapping;
  List.iter
    (fun (e : State.edge) ->
      ignore
        (State.add_edge dst ?src_conn:e.src_conn ?dst_conn:e.dst_conn ?memlet:e.memlet
           ?dst_memlet:e.dst_memlet (List.assoc e.src mapping) (List.assoc e.dst mapping)))
    (State.edges src);
  mapping

let fresh_container g base =
  if not (Graph.has_container g base) then base
  else
    let rec go i =
      let cand = Printf.sprintf "%s_%d" base i in
      if Graph.has_container g cand then go (i + 1) else cand
    in
    go 0

let map_entries st =
  List.filter_map (fun (id, n) -> if Node.is_map_entry n then Some id else None) (State.nodes st)

type loop = {
  guard : int;
  body : int;
  after : int;
  var : string;
  init : Symbolic.Expr.t;
  cond : Symbolic.Cond.t;
  update : Symbolic.Expr.t;
  entry_edge : int;
  enter_edge : int;
  back_edge : int;
  exit_edge : int;
}

let find_loops g =
  List.filter_map
    (fun guard ->
      match Graph.out_istate_edges g guard with
      | [ a; b ] -> (
          (* one conditional edge to the body, its negation to the after state *)
          let pick_enter_exit =
            if a.cond = Symbolic.Cond.negate b.cond || b.cond = Symbolic.Cond.negate a.cond then
              if a.cond <> Symbolic.Cond.True && b.cond <> Symbolic.Cond.True then
                (* heuristic: the body is the state with a back edge to guard *)
                let has_back s =
                  List.exists
                    (fun (e : Graph.istate_edge) -> e.dst = guard && e.assigns <> [])
                    (Graph.out_istate_edges g s)
                in
                if has_back a.dst then Some (a, b)
                else if has_back b.dst then Some (b, a)
                else None
              else None
            else None
          in
          match pick_enter_exit with
          | None -> None
          | Some (enter, exit_e) -> (
              let body = enter.dst in
              let back =
                List.find_opt
                  (fun (e : Graph.istate_edge) -> e.dst = guard)
                  (Graph.out_istate_edges g body)
              in
              let entry =
                List.find_opt
                  (fun (e : Graph.istate_edge) -> e.src <> body && e.assigns <> [])
                  (Graph.in_istate_edges g guard)
              in
              match (back, entry) with
              | Some back, Some entry -> (
                  match (entry.assigns, back.assigns) with
                  | [ (v1, init) ], [ (v2, update) ] when v1 = v2 ->
                      Some
                        {
                          guard;
                          body;
                          after = exit_e.dst;
                          var = v1;
                          init;
                          cond = enter.cond;
                          update;
                          entry_edge = entry.ie_id;
                          enter_edge = enter.ie_id;
                          back_edge = back.ie_id;
                          exit_edge = exit_e.ie_id;
                        }
                  | _ -> None)
              | _ -> None))
      | _ -> None)
    (Graph.state_ids g)
