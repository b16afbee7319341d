(* Tests for the SDFG IR: tasklet code, memlets, state graphs, scopes,
   validation, structural diff and memlet propagation. *)

open Sdfg

let se = Symbolic.Expr.sym
let ienv = Symbolic.Expr.Env.of_list [ ("N", 8) ]

(* ---------------- tasklet code ---------------- *)

let tcode_tests =
  [
    Alcotest.test_case "parse refs and outputs" `Quick (fun () ->
        let c = Tcode.of_string "out = a * b + 1.5; aux = select(a < b, a, b)" in
        Alcotest.(check (list string)) "refs" [ "a"; "b" ] (Tcode.refs c);
        Alcotest.(check (list string)) "outs" [ "out"; "aux" ] (Tcode.outputs c);
        Alcotest.(check int) "selects" 1 (Tcode.num_selects c));
    Alcotest.test_case "parse functions" `Quick (fun () ->
        let c = Tcode.of_string "o = sqrt(abs(x)) + exp(y) - min(x, y) + x ** 2.0" in
        Alcotest.(check (list string)) "refs" [ "x"; "y" ] (Tcode.refs c));
    Alcotest.test_case "parse comparison in select" `Quick (fun () ->
        let c = Tcode.of_string "o = select(x >= 0.0, x, -x)" in
        Alcotest.(check int) "selects" 1 (Tcode.num_selects c));
    Alcotest.test_case "rename ref" `Quick (fun () ->
        let c = Tcode.rename_ref ~from:"a" ~into:"z" (Tcode.of_string "o = a + a * b") in
        Alcotest.(check (list string)) "refs" [ "b"; "z" ] (Tcode.refs c));
    Alcotest.test_case "rename output" `Quick (fun () ->
        let c = Tcode.rename_output ~from:"o" ~into:"w" (Tcode.of_string "o = a") in
        Alcotest.(check (list string)) "outs" [ "w" ] (Tcode.outputs c));
    Alcotest.test_case "subst const" `Quick (fun () ->
        let c = Tcode.subst_const "i" 3. (Tcode.of_string "o = i * x") in
        Alcotest.(check (list string)) "refs" [ "x" ] (Tcode.refs c));
    Alcotest.test_case "inline composes" `Quick (fun () ->
        let producer = Tcode.of_string "t = x * 2.0" in
        let consumer = Tcode.of_string "o = t + 1.0" in
        let c = Tcode.inline ~producer ~out:"t" ~consumer ~conn:"t" in
        Alcotest.(check (list string)) "only x free" [ "x" ]
          (List.filter (fun r -> not (List.mem r (Tcode.outputs c))) (Tcode.refs c));
        Alcotest.(check int) "two assignments" 2 (List.length (Tcode.outputs c)));
    Alcotest.test_case "print/parse roundtrip" `Quick (fun () ->
        let c = Tcode.of_string "o = (a + b) * max(a, 2.0); p = select(a != b, a, b)" in
        let c' = Tcode.of_string (Tcode.to_string c) in
        Alcotest.(check (list string)) "refs stable" (Tcode.refs c) (Tcode.refs c'));
    Alcotest.test_case "bad code raises" `Quick (fun () ->
        match Tcode.of_string "o = frobnicate(x)" with
        | exception Symbolic.Expr.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
  ]

(* ---------------- memlets ---------------- *)

let memlet_tests =
  [
    Alcotest.test_case "volume" `Quick (fun () ->
        let m = Memlet.simple "A" "0:N-1, 3" in
        Alcotest.(check int) "vol" 8 (Symbolic.Expr.eval ienv (Memlet.volume m)));
    Alcotest.test_case "wcr ops" `Quick (fun () ->
        Alcotest.(check (float 0.)) "sum id" 0. (Memlet.wcr_identity Memlet.Wcr_sum);
        Alcotest.(check (float 0.)) "mul id" 1. (Memlet.wcr_identity Memlet.Wcr_mul);
        Alcotest.(check (float 0.)) "apply sum" 5. (Memlet.apply_wcr Memlet.Wcr_sum 2. 3.);
        Alcotest.(check (float 0.)) "apply max" 3. (Memlet.apply_wcr Memlet.Wcr_max 2. 3.);
        Alcotest.(check (float 0.)) "apply min" 2. (Memlet.apply_wcr Memlet.Wcr_min 2. 3.));
    Alcotest.test_case "rename data" `Quick (fun () ->
        let m = Memlet.rename_data ~from:"A" ~into:"B" (Memlet.simple "A" "i") in
        Alcotest.(check string) "renamed" "B" m.data);
  ]

(* ---------------- state graphs & scopes ---------------- *)

let mk_simple_state () =
  (* x -> tasklet -> y *)
  let st = State.create "s" in
  let x = State.add_node st (Node.Access "x") in
  let t = State.add_node st (Node.tasklet "double" "o = v * 2.0") in
  let y = State.add_node st (Node.Access "y") in
  ignore (State.add_edge st ~dst_conn:"v" ~memlet:(Memlet.simple "x" "0") x t);
  ignore (State.add_edge st ~src_conn:"o" ~memlet:(Memlet.simple "y" "0") t y);
  (st, x, t, y)

let mk_map_state () =
  let g = Graph.create "g" in
  Graph.add_symbol g "N";
  Graph.add_array g "x" Dtype.F64 [ se "N" ];
  Graph.add_array g "y" Dtype.F64 [ se "N" ];
  let sid = Graph.add_state g "main" in
  let st = Graph.state g sid in
  let m =
    Builder.Build.mapped_tasklet g st ~label:"scalemap"
      ~map:[ ("i", "0:N-1") ]
      ~inputs:[ ("v", Memlet.simple "x" "i") ]
      ~code:"o = v * 2.0"
      ~outputs:[ ("o", Memlet.simple "y" "i") ]
      ()
  in
  (g, sid, st, m)

let index_of x l =
  let rec go i = function
    | [] -> Alcotest.fail "element not found"
    | y :: r -> if x = y then i else go (i + 1) r
  in
  go 0 l

let state_tests =
  [
    Alcotest.test_case "add and query nodes/edges" `Quick (fun () ->
        let st, x, t, y = mk_simple_state () in
        Alcotest.(check int) "nodes" 3 (State.num_nodes st);
        Alcotest.(check int) "edges" 2 (State.num_edges st);
        Alcotest.(check (list int)) "succ x" [ t ] (State.successors st x);
        Alcotest.(check (list int)) "pred y" [ t ] (State.predecessors st y);
        Alcotest.(check (list int)) "sources" [ x ] (State.source_nodes st);
        Alcotest.(check (list int)) "sinks" [ y ] (State.sink_nodes st));
    Alcotest.test_case "remove node removes incident edges" `Quick (fun () ->
        let st, _, t, _ = mk_simple_state () in
        State.remove_node st t;
        Alcotest.(check int) "edges gone" 0 (State.num_edges st));
    Alcotest.test_case "topological respects edges" `Quick (fun () ->
        let st, x, t, y = mk_simple_state () in
        let order = State.topological st in
        Alcotest.(check bool) "x before t" true (index_of x order < index_of t order);
        Alcotest.(check bool) "t before y" true (index_of t order < index_of y order));
    Alcotest.test_case "topological rejects cycles" `Quick (fun () ->
        let st = State.create "c" in
        let a = State.add_node st (Node.Access "a") in
        let b = State.add_node st (Node.Access "b") in
        ignore (State.add_edge st a b);
        ignore (State.add_edge st b a);
        match State.topological st with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected cycle failure");
    Alcotest.test_case "scope structure of a mapped tasklet" `Quick (fun () ->
        let _, _, st, m = mk_map_state () in
        Alcotest.(check int) "exit found" m.exit (State.exit_of st m.entry);
        let inside = State.scope_nodes st m.entry in
        Alcotest.(check bool) "tasklet in scope" true (List.mem m.tasklet inside);
        Alcotest.(check (option int)) "tasklet scope" (Some m.entry) (State.scope_of st m.tasklet);
        Alcotest.(check (option int)) "entry at top" None (State.scope_of st m.entry));
    Alcotest.test_case "copy is deep w.r.t. structure" `Quick (fun () ->
        let st, _, t, _ = mk_simple_state () in
        let st' = State.copy st in
        State.remove_node st' t;
        Alcotest.(check int) "original intact" 3 (State.num_nodes st));
    Alcotest.test_case "access_nodes and referenced_containers" `Quick (fun () ->
        let st, _, _, _ = mk_simple_state () in
        Alcotest.(check int) "x nodes" 1 (List.length (State.access_nodes st "x"));
        Alcotest.(check (list string)) "containers" [ "x"; "y" ] (State.referenced_containers st));
    Alcotest.test_case "add_node_with_id preserves ids" `Quick (fun () ->
        let st = State.create "ids" in
        State.add_node_with_id st 7 (Node.Access "a");
        Alcotest.(check bool) "has 7" true (State.has_node st 7);
        let fresh = State.add_node st (Node.Access "b") in
        Alcotest.(check bool) "fresh above" true (fresh > 7));
  ]

(* ---------------- the state index ---------------- *)

(* The algorithms State used before it kept an index, over its tables
   alone: nodes and edges are found by id through [node_opt] and [edge], so
   no answer here comes from the index under test. *)
module Reference = struct
  (* ids from 0 up, until [count] of them are found; no state here has a
     negative id *)
  let scan count find =
    let rec go id found acc =
      if found = count then List.rev acc
      else if id > 1 lsl 20 then Alcotest.fail "reference scan: ids out of range"
      else
        match find id with
        | Some v -> go (id + 1) (found + 1) (v :: acc)
        | None -> go (id + 1) found acc
    in
    go 0 0 []

  let nodes st =
    scan (State.num_nodes st) (fun id -> Option.map (fun n -> (id, n)) (State.node_opt st id))

  let node_ids st = List.map fst (nodes st)

  let edges st =
    scan (State.num_edges st) (fun id ->
        match State.edge st id with e -> Some e | exception Not_found -> None)

  let in_edges st id = List.filter (fun (e : State.edge) -> e.dst = id) (edges st)
  let out_edges st id = List.filter (fun (e : State.edge) -> e.src = id) (edges st)

  let predecessors st id =
    List.sort_uniq compare (List.map (fun (e : State.edge) -> e.src) (in_edges st id))

  let successors st id =
    List.sort_uniq compare (List.map (fun (e : State.edge) -> e.dst) (out_edges st id))

  let source_nodes st = List.filter (fun id -> in_edges st id = []) (node_ids st)
  let sink_nodes st = List.filter (fun id -> out_edges st id = []) (node_ids st)

  let topological st =
    let indeg = Hashtbl.create 16 in
    List.iter (fun id -> Hashtbl.replace indeg id 0) (node_ids st);
    List.iter
      (fun (e : State.edge) -> Hashtbl.replace indeg e.dst (Hashtbl.find indeg e.dst + 1))
      (edges st);
    let queue = Queue.create () in
    List.iter (fun id -> if Hashtbl.find indeg id = 0 then Queue.add id queue) (node_ids st);
    let order = ref [] in
    while not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      order := id :: !order;
      List.iter
        (fun (e : State.edge) ->
          let d = Hashtbl.find indeg e.dst - 1 in
          Hashtbl.replace indeg e.dst d;
          if d = 0 then Queue.add e.dst queue)
        (out_edges st id)
    done;
    if List.length !order <> State.num_nodes st then
      failwith ("State.topological: cycle in state " ^ State.label st);
    List.rev !order

  (* no state here gives an entry two exits *)
  let exit_of st entry =
    match
      List.filter_map
        (fun (id, n) ->
          match n with Node.Map_exit { entry = e } when e = entry -> Some id | _ -> None)
        (nodes st)
    with
    | [] -> raise Not_found
    | [ id ] -> id
    | _ -> Alcotest.failf "entry %d has two exits" entry

  let scope_nodes st entry =
    let ex = exit_of st entry in
    let seen = Hashtbl.create 16 in
    let rec go id =
      if id <> ex && not (Hashtbl.mem seen id) then begin
        Hashtbl.replace seen id ();
        List.iter go (successors st id)
      end
    in
    List.iter go (successors st entry);
    Hashtbl.fold (fun id () acc -> id :: acc) seen []
    |> List.filter (fun id -> id <> entry)
    |> List.sort compare

  let scope_of st n =
    let entries =
      List.filter_map (fun (id, nd) -> if Node.is_map_entry nd then Some id else None) (nodes st)
    in
    match List.filter (fun e -> List.mem n (scope_nodes st e)) entries with
    | [] -> None
    | [ e ] -> Some e
    | es ->
        Some
          (List.find
             (fun e -> List.for_all (fun e' -> e = e' || List.mem e (scope_nodes st e')) es)
             es)
end

(* a query's value, or the exception it raised, by name *)
let answer f =
  match f () with
  | v -> Ok v
  | exception Not_found -> Error "Not_found"
  | exception Failure m -> Error ("Failure " ^ m)

(* Every query on every node of [st], and on two ids that are not nodes,
   equals the reference. The index answers each query twice: the first
   call builds or fills it, the second reads what it kept. *)
let agrees ~what st =
  (* the reference answers once, the query on every call *)
  let check name reference query =
    let expected = answer reference in
    (name, fun () -> compare (answer query) expected = 0)
  in
  let ids = Reference.node_ids st in
  let probes = ids @ [ -1; 1 + List.fold_left max 0 ids ] in
  let whole =
    [
      check "nodes" (fun () -> Reference.nodes st) (fun () -> State.nodes st);
      check "node_ids" (fun () -> ids) (fun () -> State.node_ids st);
      check "edges" (fun () -> Reference.edges st) (fun () -> State.edges st);
      check "source_nodes" (fun () -> Reference.source_nodes st) (fun () -> State.source_nodes st);
      check "sink_nodes" (fun () -> Reference.sink_nodes st) (fun () -> State.sink_nodes st);
      check "topological" (fun () -> Reference.topological st) (fun () -> State.topological st);
    ]
  in
  let per_node n =
    let q name reference query =
      check (Printf.sprintf "%s %d" name n) (fun () -> reference st n) (fun () -> query st n)
    in
    [
      q "in_edges" Reference.in_edges State.in_edges;
      q "out_edges" Reference.out_edges State.out_edges;
      q "predecessors" Reference.predecessors State.predecessors;
      q "successors" Reference.successors State.successors;
      q "exit_of" Reference.exit_of State.exit_of;
      q "scope_nodes" Reference.scope_nodes State.scope_nodes;
      q "scope_of" Reference.scope_of State.scope_of;
    ]
  in
  let checks = whole @ List.concat_map per_node probes in
  for call = 1 to 2 do
    List.iter
      (fun (name, same) ->
        if not (same ()) then
          Alcotest.failf "%s, state %s: %s differs from the reference (call %d)" what
            (State.label st) name call)
      checks
  done

let agrees_graph ~what g = List.iter (fun (_, st) -> agrees ~what st) (Graph.states g)

let bundled_workloads () =
  Workloads.Npbench.all () @ Workloads.Npb_frontend.all ()
  @ [
      ("bert", Workloads.Bert.build ());
      ("chain", Workloads.Chain.build ());
      ("cloudsc", Workloads.Cloudsc.build ());
      ("fig4", Workloads.Fig4.build ());
      ("sddmm", (let g, _, _ = Workloads.Sddmm.rank_program () in g));
    ]

(* a fresh copy of [g] whose states have never been queried *)
let reparsed g = Serialize.of_string (Serialize.to_string g)

let map_entry label =
  Node.Map_entry
    {
      label;
      params = [ "i" ];
      ranges = [ Symbolic.Subset.dim Symbolic.Expr.zero (Symbolic.Expr.int 3) ];
      schedule = Node.Sequential;
    }

(* two map scopes that share a tasklet without nesting: e1 -> t <- e2, and t
   feeds both exits, so each scope holds t and the other's exit *)
let overlapping () =
  let st = State.create "overlap" in
  let e1 = State.add_node st (map_entry "m1") in
  let e2 = State.add_node st (map_entry "m2") in
  let t = State.add_node st (Node.tasklet "t" "o = 1.0") in
  let x1 = State.add_node st (Node.Map_exit { entry = e1 }) in
  let x2 = State.add_node st (Node.Map_exit { entry = e2 }) in
  List.iter (fun (a, b) -> ignore (State.add_edge st a b)) [ (e1, t); (e2, t); (t, x1); (t, x2) ];
  (st, t)

(* [f] raises [Not_found] on each of three calls *)
let raises_not_found_every_call what f =
  for call = 1 to 3 do
    match f () with
    | exception Not_found -> ()
    | _ -> Alcotest.failf "%s: call %d did not raise Not_found" what call
  done

(* CLOUDSC after StateFusion on states 9 and 10: the fused state holds map
   scopes that overlap without nesting *)
let fused_cloudsc () =
  let g = Workloads.Cloudsc.build () in
  let x = Transforms.State_fusion.make Transforms.State_fusion.Correct in
  let site =
    List.find (fun (s : Transforms.Xform.site) -> s.states = [ 9; 10 ]) (x.find g)
  in
  ignore (x.apply g site);
  g

(* One step of the random walk over a pool of states. A state and nodes
   and edges are picked by index, modulo the current count. *)
type mutation =
  | Add_node of int
  | Add_node_with_id of int * int
  | Replace_node of int * int
  | Add_edge of int * int * bool
  | Remove_edge of int
  | Remove_node of int
  | Set_edge_memlet of int * bool

type step =
  | Mutate of int * mutation
  | Copy of int * bool * mutation  (** copy, then mutate the copy or the original *)

let gen_mutation =
  QCheck.Gen.(
    let i = int_bound 63 in
    oneof
      [
        map (fun k -> Add_node k) i;
        map2 (fun id k -> Add_node_with_id (id, k)) i i;
        map2 (fun n k -> Replace_node (n, k)) i i;
        map3 (fun a b m -> Add_edge (a, b, m)) i i bool;
        map (fun e -> Remove_edge e) i;
        map (fun n -> Remove_node n) i;
        map2 (fun e m -> Set_edge_memlet (e, m)) i bool;
      ])

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun s m -> Mutate (s, m)) (int_bound 3) gen_mutation);
        (1, map3 (fun s side m -> Copy (s, side, m)) (int_bound 3) bool gen_mutation);
      ])

let show_mutation = function
  | Add_node k -> Printf.sprintf "add_node %d" k
  | Add_node_with_id (id, k) -> Printf.sprintf "add_node_with_id %d %d" id k
  | Replace_node (n, k) -> Printf.sprintf "replace_node %d %d" n k
  | Add_edge (a, b, m) -> Printf.sprintf "add_edge %d %d %b" a b m
  | Remove_edge e -> Printf.sprintf "remove_edge %d" e
  | Remove_node n -> Printf.sprintf "remove_node %d" n
  | Set_edge_memlet (e, m) -> Printf.sprintf "set_edge_memlet %d %b" e m

let show_step = function
  | Mutate (s, m) -> Printf.sprintf "%d: %s" s (show_mutation m)
  | Copy (s, side, m) ->
      Printf.sprintf "copy %d, %s: %s" s (if side then "copy" else "original") (show_mutation m)

let pick l i = List.nth l (i mod List.length l)
let tasklet_node = Node.tasklet "t" "o = 1.0"

(* a payload by kind; an exit only for an entry that has none, so no entry
   ever has two *)
let payload st k =
  match k mod 4 with
  | 0 -> Node.Access (if k land 4 = 0 then "a" else "b")
  | 1 -> tasklet_node
  | 2 -> map_entry "m"
  | _ -> (
      let nodes = Reference.nodes st in
      let has_exit e =
        List.exists
          (fun (_, n) -> match n with Node.Map_exit { entry } -> entry = e | _ -> false)
          nodes
      in
      match List.find_opt (fun (id, n) -> Node.is_map_entry n && not (has_exit id)) nodes with
      | Some (e, _) -> Node.Map_exit { entry = e }
      | None -> Node.Access "c")

let mutate st = function
  | Add_node k -> ignore (State.add_node st (payload st k))
  | Add_node_with_id (id, k) ->
      let rec free id = if State.has_node st id then free (id + 1) else id in
      State.add_node_with_id st (free id) (payload st k)
  | Replace_node (n, k) -> (
      match Reference.node_ids st with
      | [] -> ()
      | ids -> State.replace_node st (pick ids n) (payload st k))
  | Add_edge (a, b, m) -> (
      match Reference.node_ids st with
      | [] -> ()
      | ids ->
          let memlet = if m then Some (Memlet.simple "a" "0") else None in
          ignore (State.add_edge st ?memlet (pick ids a) (pick ids b)))
  | Remove_edge e -> (
      match Reference.edges st with
      | [] -> State.remove_edge st e
      | es -> State.remove_edge st (pick es e).e_id)
  | Remove_node n -> (
      match Reference.node_ids st with [] -> () | ids -> State.remove_node st (pick ids n))
  | Set_edge_memlet (e, m) -> (
      match Reference.edges st with
      | [] -> ()
      | es ->
          let memlet = if m then Some (Memlet.simple "b" "1") else None in
          State.set_edge_memlet st (pick es e).e_id memlet)

let prop_index_follows_mutations =
  QCheck.Test.make ~name:"random mutators, copies and queries: every answer equals the reference"
    ~count:200
    (QCheck.make
       ~print:(fun steps -> String.concat "; " (List.map show_step steps))
       QCheck.Gen.(list_size (int_range 1 40) gen_step))
    (fun steps ->
      let pool = ref [ State.create "s0" ] in
      List.iteri
        (fun i step ->
          (match step with
          | Mutate (s, m) -> mutate (pick !pool s) m
          | Copy (s, side, m) ->
              let original = pick !pool s in
              let copy = State.copy original in
              mutate (if side then copy else original) m;
              pool := (if List.length !pool >= 4 then List.tl !pool else !pool) @ [ copy ]);
          List.iter (agrees ~what:(Printf.sprintf "after step %d" i)) !pool)
        steps;
      true)

let index_tests =
  [
    Alcotest.test_case "every query matches the reference on the bundled workloads" `Quick
      (fun () ->
        List.iter
          (fun (name, g) ->
            agrees_graph ~what:name (reparsed g);
            agrees_graph ~what:name g)
          (bundled_workloads ()));
    Alcotest.test_case "every query matches the reference on 50 generated programs per style" `Quick
      (fun () ->
        List.iter
          (fun (style : Gen.Styles.t) ->
            let admitted, _ = Gen.Admit.batch ~style ~seed:7 ~n:50 () in
            Alcotest.(check int) (style.name ^ ": admitted") 50 (List.length admitted);
            List.iter
              (fun (c : Gen.Generate.t) ->
                agrees_graph ~what:c.name (reparsed c.graph);
                agrees_graph ~what:c.name c.graph)
              admitted)
          Gen.Styles.all);
    QCheck_alcotest.to_alcotest prop_index_follows_mutations;
    Alcotest.test_case "overlapping scopes raise Not_found on every call" `Quick (fun () ->
        let st, t = overlapping () in
        raises_not_found_every_call "hand-built scope_of" (fun () -> State.scope_of st t);
        agrees ~what:"hand-built" st;
        let g = fused_cloudsc () in
        let st9 = Graph.state g 9 in
        let raising =
          List.filter
            (fun n -> answer (fun () -> Reference.scope_of st9 n) = Error "Not_found")
            (Reference.node_ids st9)
        in
        Alcotest.(check bool) "the fused state has overlapping scopes" true (raising <> []);
        List.iter
          (fun n ->
            raises_not_found_every_call
              (Printf.sprintf "cloudsc scope_of %d" n)
              (fun () -> State.scope_of st9 n))
          raising;
        agrees_graph ~what:"fused cloudsc" g);
    Alcotest.test_case "an entry without an exit raises Not_found on every call" `Quick (fun () ->
        let st = State.create "exitless" in
        let e = State.add_node st (map_entry "m") in
        let t = State.add_node st tasklet_node in
        ignore (State.add_edge st e t);
        raises_not_found_every_call "exit_of" (fun () -> State.exit_of st e);
        raises_not_found_every_call "scope_nodes" (fun () -> State.scope_nodes st e);
        raises_not_found_every_call "scope_of" (fun () -> State.scope_of st t);
        agrees ~what:"exitless" st);
    Alcotest.test_case "a cycle fails topological on every call" `Quick (fun () ->
        let st = State.create "cycle" in
        let a = State.add_node st (Node.Access "a") in
        let b = State.add_node st (Node.Access "b") in
        ignore (State.add_edge st a b);
        ignore (State.add_edge st b a);
        for call = 1 to 3 do
          match State.topological st with
          | exception Failure _ -> ()
          | _ -> Alcotest.failf "call %d did not fail" call
        done;
        agrees ~what:"cycle" st);
    Alcotest.test_case "a graph whose index is built answers the same after Marshal" `Quick
      (fun () ->
        let st, t = overlapping () in
        let g = fused_cloudsc () in
        let sid = Graph.add_state g "overlap" in
        let ost = Graph.state g sid in
        List.iter (fun (id, n) -> State.add_node_with_id ost id n) (State.nodes st);
        List.iter (fun (e : State.edge) -> ignore (State.add_edge ost e.src e.dst)) (State.edges st);
        agrees_graph ~what:"before Marshal" g;
        let g' : Graph.t = Marshal.from_string (Marshal.to_string g []) 0 in
        agrees_graph ~what:"after Marshal" g';
        raises_not_found_every_call "scope_of after Marshal" (fun () ->
            State.scope_of (Graph.state g' sid) t));
  ]

(* ---------------- graph-level ---------------- *)

let graph_tests =
  [
    Alcotest.test_case "containers and symbols" `Quick (fun () ->
        let g = Graph.create "t" in
        Graph.add_symbol g "N";
        Graph.add_array g "A" Dtype.F64 [ se "N" ];
        Graph.add_scalar g ~transient:true "s" Dtype.I32;
        Alcotest.(check bool) "has A" true (Graph.has_container g "A");
        Alcotest.(check (list string)) "external" [ "A" ] (Graph.external_containers g);
        Graph.set_transient g "A" true;
        Alcotest.(check (list string)) "none external" [] (Graph.external_containers g));
    Alcotest.test_case "state machine edges" `Quick (fun () ->
        let g = Graph.create "t" in
        let a = Graph.add_state g "a" in
        let b = Graph.add_state_after g a "b" in
        let c = Graph.add_state_after g b "c" in
        Alcotest.(check (list int)) "bfs" [ a; b; c ] (Graph.states_bfs g);
        Alcotest.(check (list int)) "reach a" [ b; c ] (Graph.reachable_states g a);
        Alcotest.(check (list int)) "coreach c" [ b; a ] (Graph.coreachable_states g c));
    Alcotest.test_case "loop reachability includes cycle" `Quick (fun () ->
        let g = Graph.create "t" in
        let s0 = Graph.add_state g "s0" in
        let guard, body, after =
          Builder.Build.for_loop g ~entry_from:s0 ~var:"i" ~init:Symbolic.Expr.zero
            ~cond:(Symbolic.Cond.Lt (se "i", se "N"))
            ~update:(Symbolic.Expr.add (se "i") Symbolic.Expr.one)
            ~body_label:"body" ~after_label:"after"
        in
        let reach = Graph.reachable_states g body in
        Alcotest.(check bool) "guard reachable" true (List.mem guard reach);
        Alcotest.(check bool) "body re-reachable" true (List.mem body reach);
        Alcotest.(check bool) "after reachable" true (List.mem after reach));
    Alcotest.test_case "free symbols exclude bound ones" `Quick (fun () ->
        let g, _, _, _ = mk_map_state () in
        Alcotest.(check (list string)) "only N" [ "N" ] (Graph.all_free_syms g));
    Alcotest.test_case "graph copy is independent" `Quick (fun () ->
        let g, sid, _, m = mk_map_state () in
        let g' = Graph.copy g in
        State.remove_node (Graph.state g' sid) m.tasklet;
        Alcotest.(check bool) "original intact" true
          (State.has_node (Graph.state g sid) m.tasklet));
  ]

(* ---------------- validation ---------------- *)

(* [st]'s nodes, ids kept, and edges as the one state of a graph *)
let graph_of_state st =
  let g = Graph.create "one-state" in
  let sid = Graph.add_state g "s" in
  let st' = Graph.state g sid in
  List.iter (fun (id, n) -> State.add_node_with_id st' id n) (State.nodes st);
  List.iter (fun (e : State.edge) -> ignore (State.add_edge st' e.src e.dst)) (State.edges st);
  (g, sid)

let is_overlap (e : Validate.error) =
  let suffix = "overlap without nesting" in
  let n = String.length e.what and k = String.length suffix in
  n >= k && String.sub e.what (n - k) k = suffix

let validate_tests =
  [
    Alcotest.test_case "valid graph passes" `Quick (fun () ->
        let g, _, _, _ = mk_map_state () in
        Alcotest.(check int) "no errors" 0 (List.length (Validate.check g)));
    Alcotest.test_case "undeclared container flagged" `Quick (fun () ->
        let g = Graph.create "bad" in
        let sid = Graph.add_state g "s" in
        let st = Graph.state g sid in
        ignore (State.add_node st (Node.Access "ghost"));
        Alcotest.(check bool) "errors" true (Validate.check g <> []));
    Alcotest.test_case "dimension mismatch flagged" `Quick (fun () ->
        let g = Graph.create "bad" in
        Graph.add_array g "A" Dtype.F64 [ se "N"; se "N" ];
        Graph.add_array g "y" Dtype.F64 [ se "N" ];
        let sid = Graph.add_state g "s" in
        let st = Graph.state g sid in
        let a = State.add_node st (Node.Access "A") in
        let t = State.add_node st (Node.tasklet "t" "o = v") in
        let y = State.add_node st (Node.Access "y") in
        ignore (State.add_edge st ~dst_conn:"v" ~memlet:(Memlet.simple "A" "0") a t);
        ignore (State.add_edge st ~src_conn:"o" ~memlet:(Memlet.simple "y" "0") t y);
        Alcotest.(check bool) "errors" true (Validate.check g <> []));
    Alcotest.test_case "unmatched map entry flagged" `Quick (fun () ->
        let g, sid, st, m = mk_map_state () in
        ignore sid;
        State.remove_node st m.exit;
        Alcotest.(check bool) "errors" true (Validate.check g <> []));
    Alcotest.test_case "tasklet bad out connector flagged" `Quick (fun () ->
        let g = Graph.create "bad" in
        Graph.add_array g "y" Dtype.F64 [ se "N" ];
        let sid = Graph.add_state g "s" in
        let st = Graph.state g sid in
        let t = State.add_node st (Node.tasklet "t" "o = 1.0") in
        let y = State.add_node st (Node.Access "y") in
        ignore (State.add_edge st ~src_conn:"nonexistent" ~memlet:(Memlet.simple "y" "0") t y);
        Alcotest.(check bool) "errors" true (Validate.check g <> []));
    Alcotest.test_case "gpu scope with host container flagged" `Quick (fun () ->
        let g = Graph.create "bad" in
        Graph.add_symbol g "N";
        Graph.add_array g "x" Dtype.F64 [ se "N" ];
        Graph.add_array g "y" Dtype.F64 [ se "N" ];
        let sid = Graph.add_state g "s" in
        let st = Graph.state g sid in
        ignore
          (Builder.Build.mapped_tasklet g st ~label:"k" ~schedule:Node.Gpu_device
             ~map:[ ("i", "0:N-1") ]
             ~inputs:[ ("v", Memlet.simple "x" "i") ]
             ~code:"o = v"
             ~outputs:[ ("o", Memlet.simple "y" "i") ]
             ());
        Alcotest.(check bool) "errors" true (Validate.check g <> []));
    Alcotest.test_case "library missing input flagged" `Quick (fun () ->
        let g = Graph.create "bad" in
        Graph.add_array g "C" Dtype.F64 [ se "N"; se "N" ];
        let sid = Graph.add_state g "s" in
        let st = Graph.state g sid in
        let l = State.add_node st (Node.Library { label = "mm"; kind = Node.Mat_mul }) in
        let c = State.add_node st (Node.Access "C") in
        ignore (State.add_edge st ~src_conn:"C" ~memlet:(Memlet.simple "C" "0:N-1, 0:N-1") l c);
        Alcotest.(check bool) "errors" true (Validate.check g <> []));
    Alcotest.test_case "map scopes that overlap without nesting are flagged" `Quick (fun () ->
        let st, _ = overlapping () in
        let g, sid = graph_of_state st in
        let e1, e2 =
          match List.filter (fun (_, n) -> Node.is_map_entry n) (State.nodes st) with
          | [ (e1, _); (e2, _) ] -> (e1, e2)
          | _ -> Alcotest.fail "expected two map entries"
        in
        Alcotest.(check bool) "hand-built" true
          (List.mem
             {
               Validate.state = Some sid;
               what = Printf.sprintf "map scopes %d and %d overlap without nesting" e1 e2;
             }
             (Validate.check g));
        (* StateFusion on CLOUDSC's states 9 and 10 *)
        Alcotest.(check int) "cloudsc validates" 0
          (List.length (Validate.check (Workloads.Cloudsc.build ())));
        let errors = Validate.check (fused_cloudsc ()) in
        Alcotest.(check bool) "fused cloudsc is flagged" true (errors <> []);
        List.iter
          (fun (e : Validate.error) ->
            Alcotest.(check bool)
              (Format.asprintf "%a" Validate.pp_error e)
              true
              (e.state = Some 9 && is_overlap e))
          errors);
    Alcotest.test_case "bundled and generated programs have nesting scopes" `Quick (fun () ->
        let generated =
          List.concat_map
            (fun (style : Gen.Styles.t) ->
              let admitted, _ = Gen.Admit.batch ~style ~seed:42 ~n:4 () in
              List.map (fun (c : Gen.Generate.t) -> (c.name, c.graph)) admitted)
            Gen.Styles.all
        in
        List.iter
          (fun (name, g) ->
            match Validate.check g with
            | [] -> ()
            | e :: _ -> Alcotest.failf "%s: %s" name (Format.asprintf "%a" Validate.pp_error e))
          (bundled_workloads () @ generated));
    Alcotest.test_case "an entry without an exit is one error, not an exception" `Quick
      (fun () ->
        List.iter
          (fun schedule ->
            let st = State.create "exitless" in
            let e =
              State.add_node st
                (match map_entry "m" with
                | Node.Map_entry info -> Node.Map_entry { info with schedule }
                | n -> n)
            in
            let t = State.add_node st tasklet_node in
            ignore (State.add_edge st e t);
            let g, sid = graph_of_state st in
            Alcotest.(check (list string))
              "errors"
              [ Format.asprintf "state %d: map entry %d has no matching exit" sid e ]
              (List.map (Format.asprintf "%a" Validate.pp_error) (Validate.check g)))
          [ Node.Sequential; Node.Gpu_device ]);
    Alcotest.test_case "all independent failures reported, sorted, deduped" `Quick (fun () ->
        (* three unrelated defects in one graph: an undeclared container, an
           unmatched map entry, and a rank-mismatched memlet — check must
           return every one of them, not stop at the first *)
        let g = Graph.create "multi" in
        Graph.add_symbol g "N";
        Graph.add_array g "A" Dtype.F64 [ se "N"; se "N" ];
        Graph.add_array g "y" Dtype.F64 [ se "N" ];
        let sid = Graph.add_state g "s" in
        let st = Graph.state g sid in
        ignore (State.add_node st (Node.Access "ghost"));
        ignore
          (State.add_node st
             (Node.Map_entry
                { label = "orphan"; params = [ "i" ]; ranges = []; schedule = Node.Sequential }));
        let a = State.add_node st (Node.Access "A") in
        let t = State.add_node st (Node.tasklet "t" "o = v") in
        let y = State.add_node st (Node.Access "y") in
        ignore (State.add_edge st ~dst_conn:"v" ~memlet:(Memlet.simple "A" "0") a t);
        ignore (State.add_edge st ~src_conn:"o" ~memlet:(Memlet.simple "y" "0") t y);
        let errors = Validate.check g in
        Alcotest.(check bool) "at least three failures" true (List.length errors >= 3);
        let resorted = List.sort_uniq Validate.compare_error errors in
        Alcotest.(check bool) "already sorted and deduped" true (errors = resorted));
  ]

(* ---------------- structural diff ---------------- *)

let diff_tests =
  [
    Alcotest.test_case "identical graphs diff empty" `Quick (fun () ->
        let g, _, _, _ = mk_map_state () in
        let d = Diff.compute ~original:g ~transformed:(Graph.copy g) in
        Alcotest.(check bool) "empty" true (Diff.is_empty d));
    Alcotest.test_case "payload change detected" `Quick (fun () ->
        let g, sid, _, m = mk_map_state () in
        let g' = Graph.copy g in
        State.replace_node (Graph.state g' sid) m.tasklet (Node.tasklet "double" "o = v * 3.0");
        let d = Diff.compute ~original:g ~transformed:g' in
        Alcotest.(check bool) "tasklet marked" true (List.mem (sid, m.tasklet) d.nodes));
    Alcotest.test_case "removed node detected" `Quick (fun () ->
        let g, sid, _, m = mk_map_state () in
        let g' = Graph.copy g in
        State.remove_node (Graph.state g' sid) m.tasklet;
        let d = Diff.compute ~original:g ~transformed:g' in
        Alcotest.(check bool) "tasklet marked" true (List.mem (sid, m.tasklet) d.nodes));
    Alcotest.test_case "added node marks neighbours" `Quick (fun () ->
        let g, sid, _, m = mk_map_state () in
        let g' = Graph.copy g in
        let st' = Graph.state g' sid in
        let extra = State.add_node st' (Node.tasklet "extra" "o = 1.0") in
        ignore
          (State.add_edge st' ~src_conn:"o" ~memlet:(Memlet.simple "y" "0") extra
             (List.assoc "y" m.out_access));
        let d = Diff.compute ~original:g ~transformed:g' in
        Alcotest.(check bool) "neighbour marked" true
          (List.mem (sid, List.assoc "y" m.out_access) d.nodes));
    Alcotest.test_case "interstate change marks states" `Quick (fun () ->
        let g = Graph.create "t" in
        let a = Graph.add_state g "a" in
        let b = Graph.add_state_after g a "b" in
        let g' = Graph.copy g in
        List.iter
          (fun (e : Graph.istate_edge) -> Graph.remove_istate_edge g' e.ie_id)
          (Graph.istate_edges g');
        ignore (Graph.add_istate_edge g' ~assigns:[ ("k", Symbolic.Expr.zero) ] a b);
        let d = Diff.compute ~original:g ~transformed:g' in
        Alcotest.(check bool) "states marked" true (List.mem a d.states && List.mem b d.states));
    Alcotest.test_case "black-box diff of a real transformation seeds a cutout" `Quick (fun () ->
        let g, sid, entry = Workloads.Chain.build_with_site () in
        let x = Transforms.Map_tiling.make Transforms.Map_tiling.Correct in
        let g' = Graph.copy g in
        let site = Transforms.Xform.dataflow_site ~state:sid ~nodes:[ entry ] ~descr:"t" in
        ignore (x.apply g' site);
        let d = Diff.compute ~original:g ~transformed:g' in
        Alcotest.(check bool) "entry marked" true (List.mem (sid, entry) d.nodes));
  ]

(* ---------------- propagation ---------------- *)

let propagate_tests =
  [
    Alcotest.test_case "param widened to range bbox" `Quick (fun () ->
        let sub = Symbolic.Subset.of_string "i, 0:N-1" in
        let out =
          Propagate.through_map ~params:[ "i" ]
            ~ranges:
              [ Symbolic.Subset.dim Symbolic.Expr.zero (Symbolic.Expr.sub (se "N") Symbolic.Expr.one) ]
            sub
        in
        Alcotest.(check int) "vol" 64 (Symbolic.Subset.volume_eval ienv out));
    Alcotest.test_case "offset expressions widen conservatively" `Quick (fun () ->
        let sub = Symbolic.Subset.of_string "i+1" in
        let out =
          Propagate.through_map ~params:[ "i" ]
            ~ranges:[ Symbolic.Subset.dim (Symbolic.Expr.int 0) (Symbolic.Expr.int 5) ]
            sub
        in
        let cs = Symbolic.Subset.concretize ienv out in
        Alcotest.(check bool) "covers 1..6" true
          (Symbolic.Subset.covers cs
             (Symbolic.Subset.concretize ienv (Symbolic.Subset.of_string "1:6"))));
    Alcotest.test_case "independent dims untouched" `Quick (fun () ->
        let sub = Symbolic.Subset.of_string "3, j" in
        let out =
          Propagate.through_map ~params:[ "j" ]
            ~ranges:[ Symbolic.Subset.dim (Symbolic.Expr.int 0) (Symbolic.Expr.int 7) ]
            sub
        in
        Alcotest.(check int) "vol" 8 (Symbolic.Subset.volume_eval ienv out));
  ]

(* ---------------- dot export ---------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let dot_tests =
  [
    Alcotest.test_case "dot export contains nodes and states" `Quick (fun () ->
        let g, _, _, _ = mk_map_state () in
        let dot = Dot.to_dot g in
        Alcotest.(check bool) "digraph" true (contains dot "digraph");
        Alcotest.(check bool) "has map" true (contains dot "scalemap"));
  ]

let () =
  Alcotest.run "sdfg"
    [
      ("tcode", tcode_tests);
      ("memlet", memlet_tests);
      ("state", state_tests);
      ("index", index_tests);
      ("graph", graph_tests);
      ("validate", validate_tests);
      ("diff", diff_tests);
      ("propagate", propagate_tests);
      ("dot", dot_tests);
    ]
