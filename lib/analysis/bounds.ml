open Sdfg
module Expr = Symbolic.Expr
module Subset = Symbolic.Subset

let concretize_opt env subset =
  match Subset.concretize env subset with
  | c -> Some c
  | exception (Expr.Unbound_symbol _ | Expr.Division_by_zero | Invalid_argument _) -> None

let pp_cranges crs =
  "["
  ^ String.concat ", "
      (List.map
         (fun (c : Subset.crange) ->
           if c.clo = c.chi then string_of_int c.clo
           else if c.cstep = 1 then Printf.sprintf "%d:%d" c.clo c.chi
           else Printf.sprintf "%d:%d:%d" c.clo c.chi c.cstep)
         crs)
  ^ "]"

(* The assumption environment plus one alternate env per non-first interstate
   candidate value (bounded): symbols assigned along different control paths
   get each of their reachable values tried. Loop variables stay free — the
   checker samples their whole range instead of pinning them. *)
let envs_of (ctx : Context.t) =
  let base =
    List.fold_left
      (fun env (v, ns) -> match ns with n :: _ -> Expr.Env.add v n env | [] -> env)
      ctx.env ctx.candidates
  in
  let alts =
    List.concat_map
      (fun (v, ns) ->
        match ns with _ :: rest -> List.map (fun n -> Expr.Env.add v n base) rest | [] -> [])
      ctx.candidates
  in
  let alts = if List.length alts > 15 then List.filteri (fun i _ -> i < 15) alts else alts in
  base :: alts

(* Dependency-order the loop binders: a loop range may reference outer loop
   variables, so repeatedly pull in loops whose ranges are closed under the
   assumptions plus the loops already ordered. Unorderable loops go last —
   if an occurrence needs one, sampling raises [Unresolved]. *)
let order_loops env loops =
  let rec go ordered remaining =
    let known s =
      Expr.Env.mem s env || List.exists (fun (v, _) -> v = s) ordered
    in
    let ready, rest =
      List.partition (fun (_, r) -> List.for_all known (Subset.free_syms [ r ])) remaining
    in
    if ready = [] then ordered @ remaining else go (ordered @ ready) rest
  in
  go [] loops

(* Binding variables of an occurrence, outermost first: recognized loop
   variables (they enclose every state), then the map parameters of the
   scope chain in nesting order — inner binders may shadow outer ones.
   Restricted to what the subset (transitively, through the binder ranges)
   actually mentions. *)
let binders_of ctx env st (o : Propagate.leaf) =
  let scope_binders =
    List.concat_map
      (fun entry ->
        match State.node_opt st entry with
        | Some (Node.Map_entry info) -> List.combine info.params info.ranges
        | _ -> [])
      (List.rev o.scopes)
  in
  let all = ctx.Context.loops @ scope_binders in
  let needed = ref (Subset.free_syms o.subset) in
  let grow () =
    List.iter
      (fun (v, r) ->
        if List.mem v !needed then
          List.iter
            (fun s -> if not (List.mem s !needed) then needed := s :: !needed)
            (Subset.free_syms [ r ]))
      all
  in
  List.iter (fun _ -> grow ()) all;
  let keep = List.filter (fun (v, _) -> List.mem v !needed) in
  order_loops env (keep ctx.Context.loops) @ keep scope_binders

(* Enumerate boundary valuations of the ordered [binders] on top of [env]:
   each binder in turn is bound to the first and last element of its
   concretized range. Binders are processed strictly in order, and a later
   binder may rebind (shadow) an earlier variable of the same name — nested
   tiling reuses tile-variable names, and the inner scope's binding is the
   one the leaf subset sees. A binder whose range is empty under the
   current valuation has zero iterations — that branch accesses nothing and
   is skipped. A binder whose range cannot be resolved makes the whole
   occurrence unresolvable: the checker skips it rather than guess. Returns
   the first valuation on which [leaf] yields a witness. *)
exception Unresolved

let rec sample env binders leaf =
  match binders with
  | [] -> leaf env
  | (v, r) :: rest -> (
      match Subset.concretize_range env r with
      | exception (Expr.Unbound_symbol _ | Expr.Division_by_zero) -> raise Unresolved
      | cr -> (
          match Subset.crange_elements cr with
          | [] -> None (* zero iterations: no accesses on this branch *)
          | els ->
              let first = List.hd els and last = List.nth els (List.length els - 1) in
              let points = List.sort_uniq compare [ first; last ] in
              List.find_map (fun p -> sample (Expr.Env.add v p env) rest leaf) points))

let check_state ctx g sid st =
  let findings = ref [] and reported = ref [] in
  List.iter
    (fun (o : Propagate.leaf) ->
      if not (List.mem (o.container, o.node) !reported) then
        match Graph.container_opt g o.container with
        | Some desc
          when desc.shape <> [] && List.length o.subset = List.length desc.shape -> (
            let binders = binders_of ctx (List.hd (envs_of ctx)) st o in
            let leaf env =
              let dims =
                match List.map (Expr.eval env) desc.shape with
                | d -> Some d
                | exception (Expr.Unbound_symbol _ | Expr.Division_by_zero) -> None
              in
              match (concretize_opt env o.subset, dims) with
              | Some crs, Some dims ->
                  if
                    List.exists2
                      (fun (c : Subset.crange) dim ->
                        Subset.crange_count c > 0
                        && (min c.clo c.chi < 0 || max c.clo c.chi > dim - 1))
                      crs dims
                  then Some (crs, dims)
                  else None
              | _ -> None
            in
            let witness =
              List.find_map
                (fun env -> try sample env binders leaf with Unresolved -> None)
                (envs_of ctx)
            in
            match witness with
            | Some (crs, dims) ->
                reported := (o.container, o.node) :: !reported;
                findings :=
                  Report.make ~pass:Report.Out_of_bounds ~severity:Report.Error ~state:sid
                    ~node:o.node ~container:o.container
                    ~subsets:[ Subset.to_string o.subset; pp_cranges crs ]
                    (Printf.sprintf "access %s reaches %s, outside shape [%s]"
                       (Subset.to_string o.subset) (pp_cranges crs)
                       (String.concat ", " (List.map string_of_int dims)))
                  :: !findings
            | None -> ())
        | _ -> ())
    (Propagate.leaves g st);
  !findings

let check ?symbols g =
  let ctx = Context.make ?symbols g in
  List.concat_map (fun (sid, st) -> check_state ctx g sid st) (Graph.states g)
