(* The reference tree-walk interpreter: executes the SDFG directly off the
   graph structure, re-deriving scope membership and symbolic subsets on
   every run. Kept as the semantic baseline that the compiled Plan path is
   differentially tested against (and as the slow side of the `bench
   interp` comparison).

   [run] validates the graph on entry and then, like the plans, does not
   re-check at run time what validation guarantees: declared containers,
   library connectors, one range per map parameter, written tasklet
   connectors, and host storage inside GPU scopes.

   It never proves a hang: a hanging run here burns every step up to the
   limit. Only tests and `bench interp` run this tier, so it stays the
   independent full run the plans' hang proofs (Hang_proof) are
   checked against, and no switch is needed to turn the proof off. *)

open Sdfg
open Defs

type ctx = {
  g : Graph.t;
  cfg : config;
  mem : Value.t;
  mutable steps : int;
  mutable writes : int;
  mutable subsets : int;
  cov : (int, unit) Hashtbl.t;
  mutable sym_env : int Symbolic.Expr.Env.t;
}

let tick ?(cost = 1) ctx =
  ctx.steps <- ctx.steps + cost;
  (match ctx.cfg.inject with
  | Some (Burn_steps { after }) when ctx.steps >= after ->
      ctx.steps <- ctx.steps + ctx.cfg.step_limit
  | _ -> ());
  if ctx.steps > ctx.cfg.step_limit then raise (F (Hang { steps = ctx.steps }))

let record ctx key = if ctx.cfg.collect_coverage then Hashtbl.replace ctx.cov (cov_digest key) ()

(* Interstate-edge expression evaluation consumes step budget: a symbol-driven
   loop that only ever updates symbols must still trip the hang detector. *)
let eval_expr ctx env e =
  tick ctx;
  try Symbolic.Expr.eval env e with
  | Symbolic.Expr.Unbound_symbol s -> raise (F (Runtime_error ("unbound symbol " ^ s)))
  | Symbolic.Expr.Division_by_zero -> raise (F (Runtime_error "division by zero in symbolic expression"))

let concretize ctx env subset =
  let cs =
    try Symbolic.Subset.concretize env subset with
    | Symbolic.Expr.Unbound_symbol s ->
        raise (F (Runtime_error ("unbound symbol " ^ s ^ " in subset")))
    | Symbolic.Expr.Division_by_zero -> raise (F (Runtime_error "division by zero in subset"))
  in
  (* scalar subsets carry no index computation, so they are not injection
     sites: only dimensioned subsets advance the counter *)
  match cs with
  | [] -> cs
  | (r : Symbolic.Subset.crange) :: rest ->
      let cs =
        match ctx.cfg.inject with
        | Some (Shift_index { nth_subset; delta }) when ctx.subsets = nth_subset ->
            { r with Symbolic.Subset.clo = r.clo + delta; chi = r.chi + delta } :: rest
        | _ -> cs
      in
      ctx.subsets <- ctx.subsets + 1;
      cs

let buffer ctx name = Value.buffer ctx.mem name

let read_subset _ctx ~context b cs =
  try Value.read_subset b cs
  with Value.Out_of_bounds { container; index; shape } ->
    raise (F (Out_of_bounds { container; index; shape; context }))

(* Corrupt the value of one write according to the injection plan. Only the
   first element of a bulk write is touched: the point is a detectable wrong
   value, not a wholesale rewrite. *)
let corrupt_write ctx values =
  let patch v =
    if Array.length values = 0 then values
    else begin
      let values = Array.copy values in
      values.(0) <- v;
      values
    end
  in
  let values =
    match ctx.cfg.inject with
    | Some (Flip_bit { nth_write; bit }) when ctx.writes = nth_write ->
        if Array.length values = 0 then values
        else
          patch
            (Int64.float_of_bits
               (Int64.logxor (Int64.bits_of_float values.(0)) (Int64.shift_left 1L (bit land 63))))
    | Some (Set_nan { nth_write }) when ctx.writes = nth_write -> patch Float.nan
    | Some (Set_inf { nth_write }) when ctx.writes = nth_write -> patch Float.infinity
    | _ -> values
  in
  ctx.writes <- ctx.writes + 1;
  values

let write_subset ctx ~context b cs values =
  let values = corrupt_write ctx values in
  try Value.write_subset b cs values
  with Value.Out_of_bounds { container; index; shape } ->
    raise (F (Out_of_bounds { container; index; shape; context }))

let accumulate_subset ctx ~context b cs wcr values =
  let values = corrupt_write ctx values in
  try Value.accumulate_subset b cs wcr values
  with Value.Out_of_bounds { container; index; shape } ->
    raise (F (Out_of_bounds { container; index; shape; context }))

(* ------------------------------------------------------------------ *)
(* Tasklet code evaluation                                             *)
(* ------------------------------------------------------------------ *)

(* Evaluate tasklet code. [inputs] maps connector names to values; [env] binds
   map parameters and symbols (available as numbers inside tasklets). Select
   outcomes are recorded as coverage points keyed by (sid, nid, #select). *)
let eval_code ctx ~sid ~nid env inputs (code : Tcode.t) =
  let select_idx = ref 0 in
  let rec ev e =
    match e with
    | Tcode.Fconst f -> f
    | Tcode.Ref s -> (
        match Hashtbl.find_opt inputs s with
        | Some v -> v
        | None -> (
            match Symbolic.Expr.Env.find_opt s env with
            | Some i -> float_of_int i
            | None -> raise (F (Invalid_graph (Printf.sprintf "tasklet %d: unbound ref %s" nid s)))))
    | Tcode.Bin (op, a, b) -> apply_bin op (ev a) (ev b)
    | Tcode.Un (op, a) -> apply_un op (ev a)
    | Tcode.Cmp (op, a, b) -> apply_cmp op (ev a) (ev b)
    | Tcode.Select (c, a, b) ->
        let taken = ev c <> 0. in
        let k = !select_idx in
        incr select_idx;
        record ctx (Cov_select { state = sid; node = nid; site = k; taken });
        if taken then ev a else ev b
  in
  let out = Hashtbl.create 4 in
  List.iter
    (fun (o, e) ->
      let v = ev e in
      Hashtbl.replace out o v;
      (* later assignments may read earlier outputs *)
      Hashtbl.replace inputs o v)
    code.assignments;
  out

(* ------------------------------------------------------------------ *)
(* Per-state execution context: the scope of every node, assigned by
   depth once per state execution. Adjacency and topological order are
   the state's own queries, answered from its index.                     *)
(* ------------------------------------------------------------------ *)

type sctx = {
  st : State.t;
  scope : (int, int option) Hashtbl.t;
}

let ins_of sc nid = State.in_edges sc.st nid
let outs_of sc nid = State.out_edges sc.st nid

(* ------------------------------------------------------------------ *)
(* Node execution                                                      *)
(* ------------------------------------------------------------------ *)

let single_value ctx ~context b cs =
  let values = read_subset ctx ~context b cs in
  if Array.length values <> 1 then
    raise (F (Invalid_graph (Printf.sprintf "%s: tasklet memlet must have volume 1 (got %d)" context (Array.length values))))
  else values.(0)

let exec_tasklet ctx sc sid nid env (code : Tcode.t) =
  tick ctx;
  let inputs = Hashtbl.create 8 in
  List.iter
    (fun (e : State.edge) ->
      match (e.dst_conn, e.memlet) with
      | Some conn, Some m ->
          let b = buffer ctx m.data in
          let cs = concretize ctx env m.subset in
          let context = Printf.sprintf "tasklet %d input %s" nid conn in
          Hashtbl.replace inputs conn (single_value ctx ~context b cs)
      | _ -> ())
    (ins_of sc nid);
  let out = eval_code ctx ~sid ~nid env inputs code in
  List.iter
    (fun (e : State.edge) ->
      match (e.src_conn, e.memlet) with
      | Some conn, Some m -> (
          let v = Hashtbl.find out conn in
          let b = buffer ctx m.data in
          let cs = concretize ctx env m.subset in
          let context = Printf.sprintf "tasklet %d output %s" nid conn in
          match m.wcr with
          | None -> write_subset ctx ~context b cs [| v |]
          | Some w -> accumulate_subset ctx ~context b cs w [| v |])
      | _ -> ())
    (outs_of sc nid)

(* validation guarantees a library node has every connector of its kind *)
let find_in sc nid conn =
  let e = List.find (fun (e : State.edge) -> e.dst_conn = Some conn && e.memlet <> None) (ins_of sc nid) in
  Option.get e.memlet

let find_out sc nid conn =
  let e = List.find (fun (e : State.edge) -> e.src_conn = Some conn && e.memlet <> None) (outs_of sc nid) in
  Option.get e.memlet

let subset_counts cs = List.map Symbolic.Subset.crange_count cs

let exec_library ctx sc nid env kind =
  let read conn =
    let m : Memlet.t = find_in sc nid conn in
    let b = buffer ctx m.data in
    let cs = concretize ctx env m.subset in
    let context = Printf.sprintf "library node %d input %s" nid conn in
    (read_subset ctx ~context b cs, subset_counts cs)
  in
  let write conn values =
    let m : Memlet.t = find_out sc nid conn in
    let b = buffer ctx m.data in
    let cs = concretize ctx env m.subset in
    let context = Printf.sprintf "library node %d output %s" nid conn in
    match m.wcr with
    | None -> write_subset ctx ~context b cs values
    | Some w -> accumulate_subset ctx ~context b cs w values
  in
  match kind with
  | Node.Mat_mul ->
      let a, adims = read "A" and b, bdims = read "B" in
      (match (adims, bdims) with
      | [ m; k ], [ k'; n ] when k = k' ->
          tick ctx ~cost:(m * n * k);
          let c = Array.make (m * n) 0. in
          for i = 0 to m - 1 do
            for j = 0 to n - 1 do
              let acc = ref 0. in
              for l = 0 to k - 1 do
                acc := !acc +. (a.((i * k) + l) *. b.((l * n) + j))
              done;
              c.((i * n) + j) <- !acc
            done
          done;
          write "C" c
      | _ -> raise (F (Invalid_graph (Printf.sprintf "matmul node %d: incompatible shapes" nid))))
  | Node.Batched_mat_mul ->
      let a, adims = read "A" and b, bdims = read "B" in
      (match (adims, bdims) with
      | [ bt; m; k ], [ bt'; k'; n ] when k = k' && bt = bt' ->
          tick ctx ~cost:(bt * m * n * k);
          let c = Array.make (bt * m * n) 0. in
          for bi = 0 to bt - 1 do
            for i = 0 to m - 1 do
              for j = 0 to n - 1 do
                let acc = ref 0. in
                for l = 0 to k - 1 do
                  acc := !acc +. (a.((bi * m * k) + (i * k) + l) *. b.((bi * k * n) + (l * n) + j))
                done;
                c.((bi * m * n) + (i * n) + j) <- !acc
              done
            done
          done;
          write "C" c
      | _ -> raise (F (Invalid_graph (Printf.sprintf "batched matmul node %d: incompatible shapes" nid))))
  | Node.Reduce (op, axes) ->
      let input, dims = read "in" in
      let ndims = List.length dims in
      List.iter
        (fun ax ->
          if ax < 0 || ax >= ndims then
            raise (F (Invalid_graph (Printf.sprintf "reduce node %d: bad axis %d" nid ax))))
        axes;
      tick ctx ~cost:(List.fold_left ( * ) 1 dims);
      let dims_arr = Array.of_list dims in
      let keep = List.filter (fun d -> not (List.mem d axes)) (List.init ndims Fun.id) in
      let out_dims = List.map (fun d -> dims_arr.(d)) keep in
      let out_n = List.fold_left ( * ) 1 out_dims in
      let out = Array.make out_n (Memlet.wcr_identity op) in
      let total = Array.fold_left ( * ) 1 dims_arr in
      let idx = Array.make ndims 0 in
      for flat = 0 to total - 1 do
        let rem = ref flat in
        for d = ndims - 1 downto 0 do
          idx.(d) <- !rem mod dims_arr.(d);
          rem := !rem / dims_arr.(d)
        done;
        let oflat = List.fold_left (fun acc d -> (acc * dims_arr.(d)) + idx.(d)) 0 keep in
        out.(oflat) <- Memlet.apply_wcr op out.(oflat) input.(flat)
      done;
      write "out" out

(* Copy edges between two access nodes: read the source subset, write the
   destination subset; volumes must match. This is also the host<->GPU copy
   mechanism. *)
let exec_copy ctx env (e : State.edge) dst_data =
  match e.memlet with
  | None -> ()
  | Some src_m ->
      let dst_m =
        match e.dst_memlet with
        | Some m -> m
        | None ->
            let desc = Graph.container ctx.g dst_data in
            Memlet.make dst_data (Symbolic.Subset.full desc.shape)
      in
      let sb = buffer ctx src_m.data and db = buffer ctx dst_m.data in
      let scs = concretize ctx env src_m.subset and dcs = concretize ctx env dst_m.subset in
      let context = Printf.sprintf "copy %s -> %s" src_m.data dst_m.data in
      let values = read_subset ctx ~context sb scs in
      tick ctx ~cost:(max 1 (Array.length values / 64));
      (match dst_m.wcr with
      | None -> write_subset ctx ~context db dcs values
      | Some w -> accumulate_subset ctx ~context db dcs w values)

(* ------------------------------------------------------------------ *)
(* Scope and state execution                                           *)
(* ------------------------------------------------------------------ *)

(* Direct members of a scope (or of the state's top level when [entry] is
   None), in topological order. *)
let direct_members sc entry =
  List.filter (fun n -> Hashtbl.find_opt sc.scope n = Some entry) (State.topological sc.st)
  |> List.filter (fun n ->
         match State.node sc.st n with Node.Map_exit _ -> false | _ -> true)

let rec exec_scope_member ctx sc sid env nid =
  match State.node sc.st nid with
  | Node.Access _ ->
      (* execute outgoing copy edges (access -> access) *)
      List.iter
        (fun (e : State.edge) ->
          match State.node_opt sc.st e.dst with
          | Some (Node.Access d) -> exec_copy ctx env e d
          | _ -> ())
        (outs_of sc nid)
  | Node.Tasklet { code; _ } -> exec_tasklet ctx sc sid nid env code
  | Node.Library { kind; _ } ->
      tick ctx;
      exec_library ctx sc nid env kind
  | Node.Map_entry info -> exec_map ctx sc sid env nid info
  | Node.Map_exit _ -> ()

and exec_map ctx sc sid env nid (info : Node.map_info) =
  let members = direct_members sc (Some nid) in
  let ranges = List.map (fun (r : Symbolic.Subset.range) ->
      try Symbolic.Subset.concretize_range env r with
      | Symbolic.Expr.Unbound_symbol s -> raise (F (Runtime_error ("unbound symbol " ^ s ^ " in map range")))
      | Symbolic.Expr.Division_by_zero -> raise (F (Runtime_error "division by zero in map range")))
      info.ranges
  in
  record ctx
    (Cov_map
       {
         state = sid;
         node = nid;
         empty = List.for_all (fun r -> Symbolic.Subset.crange_count r = 0) ranges;
       });
  (* validation guarantees one range per parameter *)
  let rec iterate env params ranges =
    match (params, ranges) with
    | p :: ps, (r : Symbolic.Subset.crange) :: rs ->
        List.iter
          (fun v -> iterate (Symbolic.Expr.Env.add p v env) ps rs)
          (Symbolic.Subset.crange_elements r)
    | _ -> List.iter (exec_scope_member ctx sc sid env) members
  in
  iterate env info.params ranges

(* Scope cache: node id -> innermost enclosing map entry (None = top level).
   Computed once per state execution. *)
let build_scope_cache st =
  let cache = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace cache n None) (State.node_ids st);
  let entries =
    List.filter_map
      (fun (id, n) -> if Node.is_map_entry n then Some id else None)
      (State.nodes st)
  in
  (* Assign innermost scopes: process entries so that nested (deeper) entries
     overwrite outer assignments. An entry B nested in A appears in A's scope
     nodes; process outer scopes first by sorting entries by containment. *)
  let scope_sets = List.map (fun e -> (e, State.scope_nodes st e)) entries in
  let depth e =
    List.length (List.filter (fun (_, nodes) -> List.mem e nodes) scope_sets)
  in
  let ordered = List.sort (fun a b -> compare (depth (fst a)) (depth (fst b))) scope_sets in
  List.iter
    (fun (e, nodes) -> List.iter (fun n -> Hashtbl.replace cache n (Some e)) nodes)
    ordered;
  (* exit nodes belong to the parent scope of their entry *)
  List.iter
    (fun (id, n) ->
      match n with
      | Node.Map_exit { entry } -> Hashtbl.replace cache id (Hashtbl.find cache entry)
      | _ -> ())
    (State.nodes st);
  cache

let build_sctx st = { st; scope = build_scope_cache st }

let exec_state ctx sid =
  tick ctx;
  record ctx (Cov_state sid);
  let st = Graph.state ctx.g sid in
  let sc = build_sctx st in
  let members = direct_members sc None in
  List.iter (exec_scope_member ctx sc sid ctx.sym_env) members

(* ------------------------------------------------------------------ *)
(* Control flow                                                        *)
(* ------------------------------------------------------------------ *)

(* Interstate conditions and assignments may read scalar containers; those are
   added (truncated to int) to the symbol environment unless shadowed. *)
let interstate_env ctx =
  Hashtbl.fold
    (fun name (b : Value.buffer) env ->
      if Array.length b.cshape = 0 && not (Symbolic.Expr.Env.mem name env) then
        Symbolic.Expr.Env.add name (int_of_float b.data.(0)) env
      else env)
    ctx.mem ctx.sym_env

let exec_program ctx =
  let start = Graph.start_state ctx.g in
  if start < 0 then ()
  else begin
    let current = ref (Some start) in
    while !current <> None do
      let sid = Option.get !current in
      exec_state ctx sid;
      let env = interstate_env ctx in
      let next =
        List.find_opt
          (fun (e : Graph.istate_edge) ->
            try Symbolic.Cond.eval env e.cond with
            | Symbolic.Expr.Unbound_symbol s ->
                raise (F (Runtime_error ("unbound symbol " ^ s ^ " in interstate condition")))
            | Symbolic.Expr.Division_by_zero ->
                raise (F (Runtime_error "division by zero in interstate condition")))
          (Graph.out_istate_edges ctx.g sid)
      in
      match next with
      | None -> current := None
      | Some e ->
          record ctx (Cov_iedge e.ie_id);
          List.iter
            (fun (sym, rhs) ->
              let v = eval_expr ctx env rhs in
              ctx.sym_env <- Symbolic.Expr.Env.add sym v ctx.sym_env)
            e.assigns;
          current := Some e.dst
    done
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ?(config = default_config) g ~symbols ~inputs =
  match Validate.check g with
  | e :: _ -> Error (invalid_graph e)
  | [] -> (
      let sym_env = Symbolic.Expr.Env.of_list symbols in
      let mem : Value.t = Hashtbl.create 16 in
      let ctx =
        { g; cfg = config; mem; steps = 0; writes = 0; subsets = 0; cov = Hashtbl.create 64; sym_env }
      in
      try
        (* allocate every container *)
        List.iter
          (fun (name, desc) ->
            let b =
              try Value.alloc ~garbage_seed:config.garbage_seed sym_env name desc with
              | Invalid_argument msg -> raise (F (Invalid_graph msg))
              | Symbolic.Expr.Unbound_symbol s ->
                  raise (F (Runtime_error ("unbound symbol " ^ s ^ " in shape of " ^ name)))
            in
            Hashtbl.replace mem name b)
          (Graph.containers g);
        (* load provided inputs *)
        List.iter
          (fun (name, values) ->
            match Value.buffer_opt mem name with
            | None -> raise (F (Runtime_error ("input for undeclared container " ^ name)))
            | Some b ->
                let n = Value.num_elements b in
                if Array.length values <> n then
                  raise
                    (F
                       (Runtime_error
                          (Printf.sprintf "input %s has %d elements, expected %d" name
                             (Array.length values) n)));
                Array.blit values 0 b.data 0 n)
          inputs;
        exec_program ctx;
        let coverage = Hashtbl.fold (fun k () acc -> k :: acc) ctx.cov [] |> List.sort compare in
        Ok { memory = mem; coverage; steps = ctx.steps; writes = ctx.writes; subsets = ctx.subsets }
      with
      | F fault -> Error fault
      | Invalid_argument msg -> Error (Runtime_error msg)
      | Stack_overflow -> Error (Hang { steps = ctx.steps }))
