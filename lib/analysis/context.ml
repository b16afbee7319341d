open Sdfg
module Expr = Symbolic.Expr
module Subset = Symbolic.Subset

type t = {
  env : int Expr.Env.t;
  loops : (string * Subset.range) list;
  candidates : (string * int list) list;
  bounds : (string * (int option * int option)) list;
}

let bounds_fn t s = Option.value ~default:(None, None) (List.assoc_opt s t.bounds)

let to_string t =
  let line f l = String.concat " " (List.map f l) in
  let opt = function Some n -> string_of_int n | None -> "_" in
  String.concat "\n"
    [
      line (fun (s, v) -> Printf.sprintf "%s=%d" s v) (Expr.Env.bindings t.env);
      line (fun (v, r) -> v ^ "=" ^ Subset.to_string [ r ]) t.loops;
      line (fun (v, ns) -> v ^ "=" ^ String.concat "," (List.map string_of_int ns)) t.candidates;
      line (fun (s, (lo, hi)) -> Printf.sprintf "%s=%s:%s" s (opt lo) (opt hi)) t.bounds;
    ]

(* The span of a canonical loop: up-counting loops run from [init] to the
   bound of the guard condition, down-counting loops the other way. Step is
   irrelevant for bounding analyses. *)
let loop_range (l : Transforms.Xform.loop) =
  let open Symbolic.Cond in
  match l.cond with
  | Lt (Expr.Sym v, b) when v = l.var -> Some (Subset.dim l.init (Expr.sub b Expr.one))
  | Le (Expr.Sym v, b) when v = l.var -> Some (Subset.dim l.init b)
  | Gt (Expr.Sym v, b) when v = l.var -> Some (Subset.dim (Expr.add b Expr.one) l.init)
  | Ge (Expr.Sym v, b) when v = l.var -> Some (Subset.dim b l.init)
  | _ -> None

(* Candidate values for interstate-assigned symbols: a bounded fixpoint over
   all assignment right-hand sides, evaluated under the assumptions plus the
   candidates found so far (one representative per referenced symbol pair,
   capped). Loop variables are excluded — their whole range is known. *)
let candidate_values g env ~loop_vars =
  let assigns =
    List.concat_map (fun (e : Graph.istate_edge) -> e.assigns) (Graph.istate_edges g)
    |> List.filter (fun (v, _) -> not (List.mem v loop_vars))
  in
  let tbl : (string, int list) Hashtbl.t = Hashtbl.create 8 in
  let add v n =
    let cur = Option.value ~default:[] (Hashtbl.find_opt tbl v) in
    if (not (List.mem n cur)) && List.length cur < 8 then Hashtbl.replace tbl v (n :: cur)
  in
  for _round = 1 to 3 do
    List.iter
      (fun (v, rhs) ->
        let free = Expr.free_syms rhs in
        let envs =
          (* one env per combination of known candidate values, capped *)
          List.fold_left
            (fun envs s ->
              if Expr.Env.mem s env then envs
              else
                match Hashtbl.find_opt tbl s with
                | Some vals when vals <> [] ->
                    List.concat_map (fun e -> List.map (fun n -> Expr.Env.add s n e) vals) envs
                    |> fun l -> if List.length l > 16 then List.filteri (fun i _ -> i < 16) l else l
                | _ -> envs)
            [ env ] free
        in
        List.iter
          (fun e ->
            match Expr.eval e rhs with
            | n -> add v n
            | exception (Expr.Unbound_symbol _ | Expr.Division_by_zero) -> ())
          envs)
      assigns
  done;
  Hashtbl.fold (fun v ns acc -> (v, List.rev ns) :: acc) tbl []
  |> List.sort compare

let make ?(symbols = []) ?(facts = []) g =
  let env = Expr.Env.of_list symbols in
  let loops =
    List.filter_map
      (fun (l : Transforms.Xform.loop) ->
        Option.map (fun r -> (l.var, r)) (loop_range l))
      (Transforms.Xform.find_loops g)
  in
  let candidates = candidate_values g env ~loop_vars:(List.map fst loops) in
  (* interval facts from the fixpoint solver contribute their concrete
     endpoints as extra candidate values: a symbol the assignment scan could
     not evaluate may still have a provable range whose extremes are exactly
     the values bounds/race sampling should probe *)
  let candidates =
    List.fold_left
      (fun cands (s, (lo, hi)) ->
        if Expr.Env.mem s env || List.mem_assoc s loops then cands
        else
          let extra = List.filter_map (fun x -> x) [ lo; hi ] in
          if extra = [] then cands
          else
            let cur = Option.value ~default:[] (List.assoc_opt s cands) in
            let merged = cur @ List.filter (fun v -> not (List.mem v cur)) extra in
            (s, merged) :: List.remove_assoc s cands)
      candidates facts
    |> List.sort compare
  in
  { env; loops; candidates; bounds = facts }

let sample_env t =
  (* loop ranges may reference symbols or outer loop variables: iterate *)
  let env = ref t.env in
  List.iter (fun (v, ns) -> match ns with n :: _ -> env := Expr.Env.add v n !env | [] -> ()) t.candidates;
  for _ = 1 to 1 + List.length t.loops do
    List.iter
      (fun (v, (r : Subset.range)) ->
        if not (Expr.Env.mem v !env) then
          match Expr.eval !env r.lo with
          | n -> env := Expr.Env.add v n !env
          | exception (Expr.Unbound_symbol _ | Expr.Division_by_zero) -> ())
      t.loops
  done;
  !env

let widen_loops t subset =
  let rec go subset fuel =
    if fuel = 0 then subset
    else
      let free = Subset.free_syms subset in
      match List.find_opt (fun (v, _) -> List.mem v free) t.loops with
      | None -> subset
      | Some (v, r) ->
          go (Sdfg.Propagate.through_map ~params:[ v ] ~ranges:[ r ] subset) (fuel - 1)
  in
  go subset (1 + List.length t.loops)
