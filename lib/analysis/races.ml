open Sdfg
module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
module Cond = Symbolic.Cond

(* A primed copy of a parameter name, fresh w.r.t. [taken]. *)
let prime taken p =
  let rec go q = if List.mem q taken then go (q ^ "'") else q in
  go (p ^ "'")

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

let pp_valuation params rho =
  String.concat ", " (List.map2 (fun p v -> Printf.sprintf "%s=%d" p v) params rho)

let crange_at (c : Subset.crange) i = c.clo + (i * c.cstep)

(* Boundary-biased index pairs along one parameter: first/second, around the
   middle, last two, and the two extremes. These catch off-by-one overlaps
   (adjacent valuations) and whole-range aliasing. *)
let index_pairs count =
  List.filter
    (fun (a, b) -> a >= 0 && b >= 0 && a < count && b < count && a <> b)
    [ (0, 1); ((count / 2) - 1, count / 2); (count - 2, count - 1); (0, count - 1) ]
  |> List.sort_uniq compare

(* Sampled pairs of distinct valuations over [params]/[cranges]. *)
let valuation_pairs params cranges =
  let counts = List.map Subset.crange_count cranges in
  if List.exists (fun c -> c <= 0) counts then []
  else
    let value k i = crange_at (List.nth cranges k) i in
    let base corner =
      List.mapi (fun k _ -> value k (if corner = 0 then 0 else List.nth counts k - 1)) params
    in
    let n = List.length params in
    let with_nth l k v = List.mapi (fun i x -> if i = k then v else x) l in
    let pairs = ref [] in
    (* both orders: write-at-rho vs read-at-rho' is not symmetric *)
    let add a b = if a <> b then pairs := (a, b) :: (b, a) :: !pairs in
    (* vary one parameter at a time from both corners *)
    List.iteri
      (fun k _ ->
        List.iter
          (fun (ia, ib) ->
            List.iter
              (fun corner ->
                let b = base corner in
                add (with_nth b k (value k ia)) (with_nth b k (value k ib)))
              [ 0; 1 ])
          (index_pairs (List.nth counts k)))
      params;
    (* transposed pairs: catch A[i,j] vs A[j,i] style aliasing *)
    if n >= 2 then begin
      let b = base 0 in
      let x = value 0 0 and y = value 1 (List.nth counts 1 - 1) in
      add (with_nth (with_nth b 0 x) 1 y) (with_nth (with_nth b 0 y) 1 x)
    end;
    (* small iteration spaces: enumerate everything *)
    let total = List.fold_left ( * ) 1 counts in
    if total <= 9 then begin
      let rec enum k acc =
        if k = n then [ List.rev acc ]
        else
          List.concat_map (fun i -> enum (k + 1) (value k i :: acc)) (List.init (List.nth counts k) Fun.id)
      in
      let all = enum 0 [] in
      List.iter (fun a -> List.iter (fun b -> add a b) all) all
    end;
    List.sort_uniq compare !pairs

let concretize_opt env subset =
  match Subset.concretize env subset with
  | c -> Some c
  | exception (Expr.Unbound_symbol _ | Expr.Division_by_zero | Invalid_argument _) -> None

let topo_positions st =
  let tbl = Hashtbl.create 32 in
  List.iteri (fun i n -> Hashtbl.replace tbl n i) (State.topological st);
  fun n -> Option.value ~default:max_int (Hashtbl.find_opt tbl n)

let is_write (o : Propagate.leaf) = Propagate.is_write o.kind

(* The leaves strictly inside the scope of [entry], each subset widened
   through the scopes between the leaf and [entry] (exclusive), so
   [entry]'s own parameters stay free. *)
let in_scope g st ~entry =
  List.filter_map
    (fun (o : Propagate.leaf) ->
      (* scopes strictly inside [entry]: the chain prefix before [entry] *)
      let rec prefix = function
        | [] -> None
        | e :: _ when e = entry -> Some []
        | e :: rest -> Option.map (fun p -> e :: p) (prefix rest)
      in
      Option.map
        (fun inner -> { o with subset = Propagate.widen_through st inner o.subset })
        (prefix o.scopes))
    (Propagate.leaves g st)

(* Does valuation [rho'] overwrite (cover) its own access [a] with an
   earlier or simultaneous write of the same container? Then no data flows
   into [a] from other iterations: the region is iteration-private
   (scope-local buffer reuse), not a carried dependence. *)
let self_covered pos env occs (a : Propagate.leaf) =
  match concretize_opt env a.subset with
  | None -> false
  | Some ca ->
      List.exists
        (fun (w2 : Propagate.leaf) ->
          is_write w2
          && w2.container = a.container
          && w2.edge <> a.edge
          && pos w2.node <= pos a.node
          && match concretize_opt env w2.subset with
             | Some cw2 -> Subset.covers cw2 ca
             | None -> false)
        occs

let is_parallel = function Node.Sequential -> false | Node.Parallel | Node.Gpu_device -> true

(* Base environment for analyzing scope [entry]: the context sample
   environment plus every *other* map parameter of the state bound to its
   range start (outer scopes first, so tile variables resolve). The
   analyzed scope's own parameters stay free — they take valuations. *)
let scope_env ctx st ~entry ~(info : Node.map_info) =
  let entries =
    List.filter_map
      (fun (nid, n) ->
        match n with
        | Node.Map_entry i when nid <> entry ->
            Some (List.length (Propagate.scope_chain st nid), nid, i)
        | _ -> None)
      (State.nodes st)
    |> List.sort compare
  in
  List.fold_left
    (fun env (_, _, (i : Node.map_info)) ->
      List.fold_left2
        (fun env p (r : Subset.range) ->
          if List.mem p info.params || Expr.Env.mem p env then env
          else
            match Expr.eval env r.lo with
            | v -> Expr.Env.add p v env
            | exception (Expr.Unbound_symbol _ | Expr.Division_by_zero) -> env)
        env i.params i.ranges)
    (Context.sample_env ctx) entries

(* Overlapping inner-scope iteration ranges across distinct outer
   valuations: the same iteration tuple executes more than once — the
   off-by-one tiling bug. Duplicated accumulations (WCR inside) change
   results even sequentially; otherwise it is only redundant work unless
   the scope is parallel. *)
let duplicated_iterations g ctx st ~entry ~(info : Node.map_info) ~sid env0 pairs =
  let findings = ref [] in
  List.iter
    (fun inner ->
      match State.node_opt st inner with
      | Some (Node.Map_entry iinfo)
        when State.scope_of st inner = Some entry
             && List.exists
                  (fun (r : Subset.range) ->
                    List.exists (fun s -> List.mem s info.params) (Subset.free_syms [ r ]))
                  iinfo.ranges ->
          let inner_occs = in_scope g st ~entry:inner in
          let wcr_inside =
            List.exists
              (fun (o : Propagate.leaf) ->
                match o.kind with Propagate.Write (Some _) -> true | _ -> false)
              inner_occs
          in
          let severity =
            if wcr_inside || is_parallel info.schedule then Report.Error else Report.Warning
          in
          let witness =
            List.find_map
              (fun (rho, rho') ->
                let env_at r =
                  List.fold_left2 (fun e p v -> Expr.Env.add p v e) env0 info.params r
                in
                let widened = Context.widen_loops ctx iinfo.ranges in
                match (concretize_opt (env_at rho) widened, concretize_opt (env_at rho') widened) with
                | Some ca, Some cb
                  when List.for_all2
                         (fun ra rb ->
                           List.exists
                             (fun x -> List.mem x (Subset.crange_elements rb))
                             (Subset.crange_elements ra))
                         ca cb ->
                    Some (rho, rho', ca, cb)
                | _ -> None)
              pairs
          in
          (match witness with
          | Some (rho, rho', ca, cb) ->
              let container =
                match List.find_opt is_write inner_occs with
                | Some o -> o.container
                | None -> iinfo.label
              in
              findings :=
                Report.make ~pass:Report.Race ~severity ~state:sid ~node:entry ~container
                  ~subsets:[ pp_cranges ca; pp_cranges cb ]
                  (Printf.sprintf
                     "inner scope '%s' iterates %s at (%s) and %s at (%s): duplicated iterations"
                     iinfo.label (pp_cranges ca)
                     (pp_valuation info.params rho)
                     (pp_cranges cb)
                     (pp_valuation info.params rho'))
                :: !findings
          | None -> ())
      | _ -> ())
    (State.scope_nodes st entry);
  !findings

type stats = { pairs : int; exact_disjoint : int; exact_overlap : int; sampled : int }

let stats_zero = { pairs = 0; exact_disjoint = 0; exact_overlap = 0; sampled = 0 }

let stats_add a b =
  { pairs = a.pairs + b.pairs;
    exact_disjoint = a.exact_disjoint + b.exact_disjoint;
    exact_overlap = a.exact_overlap + b.exact_overlap;
    sampled = a.sampled + b.sampled }

let stats_meta s =
  [ ("dep_pairs", string_of_int s.pairs);
    ("dep_decided", string_of_int (s.exact_disjoint + s.exact_overlap));
    ("dep_sampled", string_of_int s.sampled) ]

let pp_model model =
  String.concat "," (List.map (fun (p, v) -> Printf.sprintf "%s=%d" p v) model)

let witness_of_finding (f : Report.finding) =
  match Report.meta_find "dep_witness" f with
  | None -> None
  | Some s -> (
      try
        Some
          (List.map
             (fun kv ->
               match String.index_opt kv '=' with
               | Some i ->
                   ( String.sub kv 0 i,
                     int_of_string (String.sub kv (i + 1) (String.length kv - i - 1)) )
               | None -> raise Exit)
             (String.split_on_char ',' s))
      with _ -> None)

let check_scope ?(carried = false) ?(exact = true) ?memo ctx g sid st ~entry
    ~(info : Node.map_info) =
  if info.params = [] then ([], stats_zero)
  else
    let env0 = scope_env ctx st ~entry ~info in
    match concretize_opt env0 (Context.widen_loops ctx info.ranges) with
    | None -> ([], stats_zero)
    | Some cranges ->
        let pairs = valuation_pairs info.params cranges in
        if pairs = [] then ([], stats_zero)
        else begin
          let occs = in_scope g st ~entry in
          let taken =
            info.params
            @ List.concat_map (fun (o : Propagate.leaf) -> Subset.free_syms o.subset) occs
          in
          let primed = List.map (fun p -> (p, prime taken p)) info.params in
          let distinct =
            Cond.any_ne (List.map (fun (p, p') -> (Expr.Sym p, Expr.Sym p')) primed)
          in
          let pos = topo_positions st in
          let env_pair rho rho' =
            let env = List.fold_left2 (fun e p v -> Expr.Env.add p v e) env0 info.params rho in
            List.fold_left2 (fun e (_, p') v -> Expr.Env.add p' v e) env primed rho'
          in
          let env_at rho =
            List.fold_left2 (fun e p v -> Expr.Env.add p v e) env0 info.params rho
          in
          let findings = ref (duplicated_iterations g ctx st ~entry ~info ~sid env0 pairs) in
          let stats = ref stats_zero in
          let bump f = stats := f !stats in
          let reported = ref [] in
          let writes = List.filter is_write occs in
          let report_race (w : Propagate.leaf) (a : Propagate.leaf) ~rho ~rho' ~cw ~ca ~meta =
            reported := (entry, w.container) :: !reported;
            let what =
              match a.kind with Propagate.Read -> "read" | Propagate.Write _ -> "write"
            in
            let severity =
              if is_parallel info.schedule then Report.Error else Report.Warning
            in
            let concrete =
              match (cw, ca) with
              | Some cw, Some ca -> Printf.sprintf ": %s vs %s" (pp_cranges cw) (pp_cranges ca)
              | _ -> ""
            in
            findings :=
              Report.make ~pass:Report.Race ~severity ~state:sid ~node:entry
                ~container:w.container
                ~subsets:[ Subset.to_string w.subset; Subset.to_string a.subset ]
                ~meta
                (Printf.sprintf
                   "write %s at (%s) overlaps %s %s at distinct valuation (%s)%s"
                   (Subset.to_string w.subset)
                   (pp_valuation info.params rho)
                   what
                   (Subset.to_string a.subset)
                   (pp_valuation info.params rho')
                   concrete)
              :: !findings
          in
          (* the sampled fallback: boundary/adjacent/transposed valuation
             pairs, exactly as before the exact tier existed *)
          let sampled_search (w : Propagate.leaf) (a : Propagate.leaf) a_primed =
            let witness =
              List.find_map
                (fun (rho, rho') ->
                  let env = env_pair rho rho' in
                  if not (Cond.eval env distinct) then None
                  else
                    match (concretize_opt env w.subset, concretize_opt env a_primed) with
                    | Some cw, Some ca when Subset.overlaps cw ca ->
                        if
                          (not (is_parallel info.schedule))
                          && self_covered pos (env_at rho') occs a
                        then None
                        else Some (rho, rho', cw, ca)
                    | _ -> None)
                pairs
            in
            match witness with
            | Some (rho, rho', cw, ca) ->
                report_race w a ~rho ~rho' ~cw:(Some cw) ~ca:(Some ca) ~meta:[]
            | None -> ()
          in
          List.iter
            (fun (w : Propagate.leaf) ->
              List.iter
                (fun (a : Propagate.leaf) ->
                  if
                    a.container = w.container
                    && not (List.mem (entry, w.container) !reported)
                    &&
                    (* pair relevance: commutative WCR/WCR accumulation is
                       safe; sequential plain write/write is deterministic *)
                    (match (w.kind, a.kind) with
                    | Propagate.Write (Some _), Propagate.Write (Some _) -> false
                    | Propagate.Write _, Propagate.Write _
                      when w.edge = a.edge && not (is_parallel info.schedule) ->
                        false
                    | Propagate.Write _, Propagate.Write _ -> is_parallel info.schedule
                    | Propagate.Write _, Propagate.Read -> carried || is_parallel info.schedule
                    | Propagate.Read, _ -> false)
                  then begin
                    bump (fun s -> { s with pairs = s.pairs + 1 });
                    let a_primed = Subset.rename_syms primed a.subset in
                    if Subset.definitely_disjoint w.subset a_primed then
                      bump (fun s -> { s with exact_disjoint = s.exact_disjoint + 1 })
                    else
                      let verdict =
                        if not exact then Deps.Unknown
                        else
                          Deps.overlap ?memo ~env:env0 ~bounds:(Context.bounds_fn ctx)
                            ~params:(List.combine info.params cranges)
                            ~primed w.subset a_primed
                      in
                      match verdict with
                      | Deps.Disjoint ->
                          bump (fun s -> { s with exact_disjoint = s.exact_disjoint + 1 })
                      | Deps.Overlap model ->
                          let rho = List.map (fun p -> List.assoc p model) info.params in
                          let rho' =
                            List.map (fun (_, p') -> List.assoc p' model) primed
                          in
                          if
                            (not (is_parallel info.schedule))
                            && self_covered pos (env_at rho') occs a
                          then begin
                            (* iteration-private buffer reuse: the exact
                               witness is not a carried dependence; keep
                               parity with the sampled tier's filter *)
                            bump (fun s -> { s with sampled = s.sampled + 1 });
                            sampled_search w a a_primed
                          end
                          else begin
                            bump (fun s -> { s with exact_overlap = s.exact_overlap + 1 });
                            let env = env_pair rho rho' in
                            report_race w a ~rho ~rho'
                              ~cw:(concretize_opt env w.subset)
                              ~ca:(concretize_opt env a_primed)
                              ~meta:[ ("dep_witness", pp_model model) ]
                          end
                      | Deps.Unknown ->
                          bump (fun s -> { s with sampled = s.sampled + 1 });
                          sampled_search w a a_primed
                  end)
                occs)
            writes;
          let meta = stats_meta !stats in
          (List.map (Report.with_meta meta) !findings, !stats)
        end

let check_state_stats ?carried ?exact ?memo ctx g sid st =
  List.fold_left
    (fun (fs, st_acc) (nid, n) ->
      match n with
      | Node.Map_entry info ->
          let fs', s = check_scope ?carried ?exact ?memo ctx g sid st ~entry:nid ~info in
          (fs @ fs', stats_add st_acc s)
      | _ -> (fs, st_acc))
    ([], stats_zero) (State.nodes st)

let check_state ?carried ctx g sid st = fst (check_state_stats ?carried ctx g sid st)

let check_stats ?carried ?exact ?symbols g =
  let ctx = Context.make ?symbols g in
  List.fold_left
    (fun (fs, st_acc) (sid, st) ->
      let fs', s = check_state_stats ?carried ?exact ctx g sid st in
      (fs @ fs', stats_add st_acc s))
    ([], stats_zero) (Graph.states g)

let check ?carried ?symbols g = fst (check_stats ?carried ?symbols g)
