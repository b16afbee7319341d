(* Differential proof obligation for compile-once execution plans: every
   workload in lib/workloads (including fig4 and the frontend-built NPB
   kernels) runs through both the reference tree-walk and the plan path, and
   the outcomes must be bit-identical — final memory down to the float bits,
   step counts, injection counters, and coverage sets. *)

open Sdfg

let exec_tree = Interp.Exec.run_tree
let exec_plan = Interp.Exec.run

(* deterministic, value-diverse inputs for every non-transient container *)
let inputs_for g ~symbols =
  let env = Symbolic.Expr.Env.of_list symbols in
  List.filter_map
    (fun (c, (d : Graph.datadesc)) ->
      if d.transient then None
      else
        let n = List.fold_left (fun v e -> v * max 1 (Symbolic.Expr.eval env e)) 1 d.shape in
        Some (c, Array.init n (fun i -> (0.125 *. float_of_int ((i * 7 mod 23) - 11)) +. 0.5)))
    (Graph.containers g)

let symbols_for g =
  List.map (fun s -> (s, if s = "T" then 3 else 6)) (Graph.all_free_syms g)

let valuation_to_string symbols =
  "[" ^ String.concat "; " (List.map (fun (s, v) -> Printf.sprintf "%s=%d" s v) symbols) ^ "]"

let roster () =
  List.map (fun (n, g) -> (n, g, symbols_for g)) (Workloads.Npbench.all ())
  @ List.map (fun (n, g) -> ("frontend:" ^ n, g, symbols_for g)) (Workloads.Npb_frontend.all ())
  @ [
      ("fig4", Workloads.Fig4.build (), symbols_for (Workloads.Fig4.build ()));
      ("chain", Workloads.Chain.build (), symbols_for (Workloads.Chain.build ()));
      ("bert", Workloads.Bert.build (), Workloads.Bert.default_symbols);
      ("cloudsc", Workloads.Cloudsc.build (), Workloads.Cloudsc.default_symbols);
      ("sddmm",
       (let g, _, _ = Workloads.Sddmm.rank_program () in g),
       symbols_for (let g, _, _ = Workloads.Sddmm.rank_program () in g));
    ]

let check_same name a b =
  match (a, b) with
  | Error f1, Error f2 ->
      Alcotest.(check string)
        (name ^ ": fault") (Interp.Exec.fault_to_string f1) (Interp.Exec.fault_to_string f2)
  | Ok _, Error f ->
      Alcotest.fail (name ^ ": tree ok, plan faulted: " ^ Interp.Exec.fault_to_string f)
  | Error f, Ok _ ->
      Alcotest.fail (name ^ ": tree faulted, plan ok: " ^ Interp.Exec.fault_to_string f)
  | Ok o1, Ok o2 ->
      Alcotest.(check int) (name ^ ": steps") o1.Interp.Exec.steps o2.Interp.Exec.steps;
      Alcotest.(check int) (name ^ ": writes") o1.Interp.Exec.writes o2.Interp.Exec.writes;
      Alcotest.(check int) (name ^ ": subsets") o1.Interp.Exec.subsets o2.Interp.Exec.subsets;
      Alcotest.(check (list int)) (name ^ ": coverage") o1.Interp.Exec.coverage
        o2.Interp.Exec.coverage;
      let names m = Hashtbl.fold (fun k _ acc -> k :: acc) m [] |> List.sort compare in
      Alcotest.(check (list string))
        (name ^ ": containers")
        (names o1.Interp.Exec.memory) (names o2.Interp.Exec.memory);
      Hashtbl.iter
        (fun c (b1 : Interp.Value.buffer) ->
          let b2 = Interp.Value.buffer o2.Interp.Exec.memory c in
          Alcotest.(check (array int64))
            (name ^ ": memory of " ^ c)
            (Array.map Int64.bits_of_float b1.data)
            (Array.map Int64.bits_of_float b2.data))
        o1.Interp.Exec.memory

let differential ?config name g ~symbols ~inputs =
  check_same name (exec_tree ?config g ~symbols ~inputs) (exec_plan ?config g ~symbols ~inputs)

let cov_config = { Interp.Exec.default_config with collect_coverage = true }

let workload_tests =
  [
    Alcotest.test_case "plan matches tree-walk on every workload" `Quick (fun () ->
        List.iter
          (fun (name, g, symbols) ->
            differential ~config:cov_config name g ~symbols ~inputs:(inputs_for g ~symbols))
          (roster ()));
    Alcotest.test_case "parity holds with no inputs (garbage-free zero fill)" `Quick (fun () ->
        List.iter
          (fun (name, g, symbols) -> differential ~config:cov_config name g ~symbols ~inputs:[])
          (roster ()));
    Alcotest.test_case "a tasklet memlet access allocates no index array" `Quick (fun () ->
        (* scale reads a scalar and a point and writes a point per element;
           addressed in place, an element allocates only float boxes (10
           words), against 59 with an index array per access *)
        let words n =
          let p =
            match Interp.Plan.compile (Workloads.Npbench.scale ()) ~symbols:[ ("N", n) ] with
            | Ok p -> p
            | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)
          in
          let run () =
            match Interp.Plan.execute p ~inputs:[] with
            | Ok _ -> ()
            | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)
          in
          run ();
          let before = Gc.minor_words () in
          run ();
          Gc.minor_words () -. before
        in
        let small = words 64 and large = words 4096 in
        let per_element = (large -. small) /. float_of_int (4096 - 64) in
        if per_element > 16. then
          Alcotest.failf "%.1f minor words per element (%.0f at N=64, %.0f at N=4096)" per_element
            small large);
  ]

(* every injection kind, on workloads exercising tasklets, WCR, library
   nodes, interstate loops — counters and fault signatures must agree *)
let injection_tests =
  let injections =
    [
      Interp.Exec.Flip_bit { nth_write = 2; bit = 52 };
      Interp.Exec.Set_nan { nth_write = 0 };
      Interp.Exec.Set_inf { nth_write = 3 };
      Interp.Exec.Shift_index { nth_subset = 1; delta = 1 };
      Interp.Exec.Shift_index { nth_subset = 4; delta = -2 };
      Interp.Exec.Burn_steps { after = 10 };
    ]
  in
  let subjects () =
    [
      ("scale", Workloads.Npbench.scale ());
      ("gemm", Workloads.Npbench.gemm ());
      ("mm_lib", Workloads.Npbench.mm_lib ());
      ("softmax", Workloads.Npbench.softmax ());
      ("fig4", Workloads.Fig4.build ());
    ]
  in
  [
    Alcotest.test_case "injection parity across all fault kinds" `Quick (fun () ->
        List.iter
          (fun (name, g) ->
            let symbols = symbols_for g in
            let inputs = inputs_for g ~symbols in
            List.iter
              (fun inject ->
                let config =
                  { Interp.Exec.default_config with inject = Some inject; collect_coverage = true }
                in
                differential ~config
                  (name ^ " under " ^ Interp.Exec.injection_to_string inject)
                  g ~symbols ~inputs)
              injections)
          (subjects ()));
  ]

(* One mapped tasklet at N = 4 that reads [input] from the N x N array A
   and writes [output] to the N-vector x: per iteration one read subset,
   then one write subset, so s2 is the read at i = 1 and s5 the write at
   i = 2. *)
let memlet_kernel ~input ~output =
  let g = Graph.create "memlet_fault" in
  Graph.add_symbol g "N";
  let n = Symbolic.Expr.sym "N" in
  Graph.add_array g "A" Dtype.F64 [ n; n ];
  Graph.add_array g "x" Dtype.F64 [ n ];
  let st = Graph.state g (Graph.add_state g "s") in
  ignore
    (Builder.Build.mapped_tasklet g st ~label:"k"
       ~map:[ ("i", "0:N-1") ]
       ~inputs:[ ("v", input) ]
       ~code:"o = v"
       ~outputs:[ ("o", output) ]
       ());
  g

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let memlet_fault_cases =
  let mem = Builder.Build.mem and sum = Memlet.Wcr_sum in
  [
    ("read high in dim 1", mem "A" "i, i+1", mem "x" "i", "A[3,4] (shape [4,4]) in tasklet");
    ("read low in dim 0", mem "A" "i-1, i", mem "x" "i", "A[-1,0] (shape [4,4]) in tasklet");
    ("plain write", mem "A" "i, i", mem "x" "i+1", "x[4] (shape [4]) in tasklet");
    ("wcr write high", mem "A" "i, i", mem ~wcr:sum "x" "i+1", "x[4] (shape [4]) in tasklet");
    ("wcr write low", mem "A" "i, i", mem ~wcr:sum "x" "i-N", "x[-4] (shape [4]) in tasklet");
    ("unbound behind out of bounds", mem "A" "i+N, M", mem "x" "i", "unbound symbol M in subset");
    ("rank mismatch", mem "A" "i", mem "x" "i", "memlet on A has 1 dims, container has 2");
  ]

let fault_tests =
  [
    Alcotest.test_case "tasklet memlet faults match per dimension, shifted or not" `Quick
      (fun () ->
        List.iter
          (fun (name, input, output, expected) ->
            let g = memlet_kernel ~input ~output in
            let symbols = [ ("N", 4) ] in
            let inputs = inputs_for g ~symbols in
            (match exec_tree g ~symbols ~inputs with
            | Error f ->
                let text = Interp.Exec.fault_to_string f in
                if not (contains text expected) then
                  Alcotest.failf "%s: %S does not contain %S" name text expected
            | Ok _ -> Alcotest.fail (name ^ ": expected a fault"));
            List.iter
              (fun inject ->
                let config = { cov_config with inject } in
                differential ~config
                  (name
                  ^ match inject with
                    | Some i -> " under " ^ Interp.Exec.injection_to_string i
                    | None -> "")
                  g ~symbols ~inputs)
              [
                None;
                Some (Interp.Exec.Shift_index { nth_subset = 2; delta = 3 });
                Some (Interp.Exec.Shift_index { nth_subset = 5; delta = -1 });
              ])
          memlet_fault_cases);
    Alcotest.test_case "unbound symbol faults identically" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        differential "scale without N" g ~symbols:[] ~inputs:[]);
    Alcotest.test_case "hang faults identically at a tiny step budget" `Quick (fun () ->
        let g = Workloads.Fig4.build () in
        let symbols = symbols_for g in
        let config = { Interp.Exec.default_config with step_limit = 17 } in
        (match exec_plan ~config g ~symbols ~inputs:[] with
        | Error (Interp.Exec.Hang _) -> ()
        | Ok _ -> Alcotest.fail "expected a hang"
        | Error f -> Alcotest.fail ("expected a hang, got " ^ Interp.Exec.fault_to_string f));
        differential ~config "fig4 at limit 17" g ~symbols ~inputs:[]);
    Alcotest.test_case "oversized input rejected identically" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        differential "scale bad input" g ~symbols:[ ("N", 4) ]
          ~inputs:[ ("x", Array.make 9 1.) ]);
    Alcotest.test_case "gpu garbage is identical under both paths" `Quick (fun () ->
        let g = Graph.create "gpu_garbage" in
        Graph.add_array g ~transient:true ~storage:Gpu "d" Dtype.F64 [ Symbolic.Expr.int 5 ];
        Graph.add_array g "y" Dtype.F64 [ Symbolic.Expr.int 5 ];
        let st = Graph.state g (Graph.add_state g "s") in
        ignore (Builder.Build.copy g st ~src:"d" ~dst:"y" ());
        differential "gpu garbage copy" g ~symbols:[] ~inputs:[];
        (* and the garbage really is the deterministic non-zero fill *)
        match exec_plan g ~symbols:[] ~inputs:[] with
        | Ok o ->
            let y = (Interp.Value.buffer o.Interp.Exec.memory "y").data in
            Alcotest.(check bool) "nonzero garbage" true (Array.exists (fun v -> v <> 0.) y)
        | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f));
    Alcotest.test_case "division by zero in an interstate condition is a typed fault" `Quick
      (fun () ->
        let se = Symbolic.Expr.sym in
        let g = Graph.create "div_guard" in
        Graph.add_array g "x" Dtype.F64 [ Symbolic.Expr.int 1 ];
        let s0 = Graph.add_state g "init" in
        let _, body, _ =
          Builder.Build.for_loop g ~entry_from:s0 ~var:"i" ~init:Symbolic.Expr.zero
            ~cond:(Symbolic.Cond.Lt (Symbolic.Expr.Div (se "i", se "M"), Symbolic.Expr.int 2))
            ~update:(Symbolic.Expr.add (se "i") Symbolic.Expr.one)
            ~body_label:"body" ~after_label:"after"
        in
        ignore
          (Builder.Build.mapped_tasklet g (Graph.state g body) ~label:"bump"
             ~inputs:[ ("v", Builder.Build.mem "x" "0") ]
             ~code:"o = v + 1.0"
             ~outputs:[ ("o", Builder.Build.mem "x" "0") ]
             ());
        let symbols = [ ("M", 0) ] in
        let expected = "runtime error: division by zero in interstate condition" in
        List.iter
          (fun (tier, r) ->
            match r with
            | Error f -> Alcotest.(check string) tier expected (Interp.Exec.fault_to_string f)
            | Ok _ -> Alcotest.fail (tier ^ ": expected a fault"))
          [
            ("tree", exec_tree g ~symbols ~inputs:[]);
            ("plan", exec_plan g ~symbols ~inputs:[]);
          ]);
  ]

(* ---------------- hang proofs ---------------- *)

(* Loops from Hang_loops, where a plan proves a hang by a repeated state
   entry and skips whole periods. The tree-walk never proves anything, so it
   is the independent full run each proved outcome is checked against. *)

let limit_config step_limit = { Interp.Exec.default_config with step_limit }

let expect_hang name = function
  | Error (Interp.Exec.Hang _) -> ()
  | Ok _ -> Alcotest.fail (name ^ ": expected a hang")
  | Error f -> Alcotest.fail (name ^ ": expected a hang, got " ^ Interp.Exec.fault_to_string f)

let hang_tests =
  [
    Alcotest.test_case "a proved hang reports the full run's steps at every offset in a period"
      `Quick (fun () ->
        let g = Hang_loops.periodic () in
        (* two limits below the first repeat (step 362), then one per offset
           within a period, well past it *)
        let limits = [ 100; 300 ] @ List.init Hang_loops.period (fun r -> 2_000 + r) in
        List.iter
          (fun limit ->
            let config = limit_config limit in
            let name = Printf.sprintf "periodic at limit %d" limit in
            expect_hang name (exec_plan ~config g ~symbols:[] ~inputs:[]);
            differential ~config name g ~symbols:[] ~inputs:[])
          limits);
    Alcotest.test_case "an unbounded loop is never proved and hangs identically" `Quick (fun () ->
        let g = Hang_loops.unbounded () in
        List.iter
          (fun limit ->
            let config = limit_config limit in
            let name = Printf.sprintf "unbounded at limit %d" limit in
            expect_hang name (exec_plan ~config g ~symbols:[] ~inputs:[]);
            differential ~config name g ~symbols:[] ~inputs:[])
          [ 300; 5_000; 20_001 ]);
    Alcotest.test_case "a container-driven exit finishes like the tree-walk" `Quick (fun () ->
        let g = Hang_loops.counter_exit () in
        List.iter
          (fun count ->
            let inputs = [ ("count", [| count |]) ] in
            let name = Printf.sprintf "counter_exit from %g" count in
            (match exec_plan g ~symbols:[] ~inputs with
            | Ok _ -> ()
            | Error f -> Alcotest.fail (name ^ ": " ^ Interp.Exec.fault_to_string f));
            differential ~config:cov_config name g ~symbols:[] ~inputs)
          [ 0.; 2.5; -3. ]);
    Alcotest.test_case "injections in a later period of a hang match the tree-walk" `Quick
      (fun () ->
        let g = Hang_loops.periodic () in
        let later = 9 in
        let run inject =
          let config =
            { (limit_config 20_000) with inject = Some inject; collect_coverage = true }
          in
          differential ~config (Interp.Exec.injection_to_string inject) g ~symbols:[] ~inputs:[];
          exec_tree ~config g ~symbols:[] ~inputs:[]
        in
        (* both really land: the burn shows in the step count, the shift as
           an out-of-bounds access *)
        (match run (Interp.Exec.Burn_steps { after = later * Hang_loops.period }) with
        | Error (Interp.Exec.Hang { steps }) when steps > 20_000 + (later * Hang_loops.period) -> ()
        | _ -> Alcotest.fail "burn-steps did not burn");
        match
          run
            (Interp.Exec.Shift_index
               { nth_subset = (later * Hang_loops.subsets_per_period) + 5; delta = 5 })
        with
        | Error (Interp.Exec.Out_of_bounds _) -> ()
        | _ -> Alcotest.fail "shift-index did not land");
    Alcotest.test_case "a fault under a Select branch keeps the proof off" `Quick (fun () ->
        List.iter
          (fun name ->
            let g = Hang_loops.guarded_fault name in
            let config = limit_config 20_000 in
            (match exec_tree ~config g ~symbols:[] ~inputs:[] with
            | Error (Interp.Exec.Invalid_graph _) -> ()
            | _ -> Alcotest.fail (name ^ ": expected the guarded reference to fault"));
            differential ~config ("guarded " ^ name) g ~symbols:[] ~inputs:[])
          [ "ghost"; "j" ]);
    Alcotest.test_case "a proved hang allocates the same at step limits 10^4 and 10^7" `Quick
      (fun () ->
        let p =
          match Interp.Plan.compile (Hang_loops.periodic ()) ~symbols:[] with
          | Ok p -> p
          | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)
        in
        let words limit =
          let before = Gc.minor_words () in
          expect_hang "periodic" (Interp.Plan.execute ~config:(limit_config limit) p ~inputs:[]);
          Gc.minor_words () -. before
        in
        let small = words 10_000 in
        let large = words 10_000_000 in
        if large > 2. *. small then
          Alcotest.failf "%.0f minor words at limit 10^7 against %.0f at 10^4" large small);
    Alcotest.test_case "a bound interstate symbol under a Select keeps the proof" `Quick (fun () ->
        (* j is assigned only on an edge past the loop; bound from the
           start, its slot is never unset, so the guarded read cannot fault
           and the hang is proved: a burned one allocates with the limit *)
        let g = Hang_loops.guarded_fault "j" in
        let symbols = [ ("j", 1) ] in
        let p =
          match Interp.Plan.compile g ~symbols with
          | Ok p -> p
          | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)
        in
        let words limit =
          let config = limit_config limit in
          let name = Printf.sprintf "guarded j = 1 at limit %d" limit in
          let before = Gc.minor_words () in
          let o = Interp.Plan.execute ~config p ~inputs:[] in
          let w = Gc.minor_words () -. before in
          expect_hang name o;
          check_same name (exec_tree ~config g ~symbols ~inputs:[]) o;
          w
        in
        let small = words 10_000 in
        let large = words 1_000_000 in
        if large > 2. *. small then
          Alcotest.failf "%.0f minor words at limit 10^6 against %.0f at 10^4" large small);
  ]

(* ---------------- one lowering, many bindings ---------------- *)

(* [Plan.compile g] lowers once; every valuation bound to it must give the
   plan a full application gives, so each is checked against the tree-walk
   at that valuation. *)

let run_staged ~config stage ~symbols ~inputs =
  match stage ~symbols with
  | Error f -> (None, Error f)
  | Ok p -> (Some p, Interp.Plan.execute ~config p ~inputs)

let staged_tests =
  [
    Alcotest.test_case "one per-program stage serves every workload at three valuations" `Quick
      (fun () ->
        List.iter
          (fun (name, g, symbols) ->
            let stage = Interp.Plan.compile g in
            let at symbols =
              let inputs = inputs_for g ~symbols in
              let p, o = run_staged ~config:cov_config stage ~symbols ~inputs in
              check_same
                (Printf.sprintf "%s at %s" name (valuation_to_string symbols))
                (exec_tree ~config:cov_config g ~symbols ~inputs)
                o;
              (p, inputs, o)
            in
            let first = at symbols in
            ignore (at (List.map (fun (s, _) -> (s, 4)) symbols));
            ignore (at symbols);
            (* the first plan keeps no state from the runs of later plans *)
            match first with
            | Some p, inputs, o ->
                check_same (name ^ ": first plan re-executed") o
                  (Interp.Plan.execute ~config:cov_config p ~inputs)
            | None, _, _ -> ())
          (roster ()));
    Alcotest.test_case "a guarded fault is judged per valuation" `Quick (fun () ->
        let g = Hang_loops.guarded_fault "ghost" in
        let stage = Interp.Plan.compile g in
        let config = limit_config 20_000 in
        let plans =
          List.map
            (fun symbols ->
              let p, o = run_staged ~config stage ~symbols ~inputs:[] in
              check_same
                ("ghost at " ^ valuation_to_string symbols)
                (exec_tree ~config g ~symbols ~inputs:[])
                o;
              p)
            [ [ ("ghost", 1) ]; []; [ ("ghost", 1) ] ]
        in
        (* bound, the reference cannot fault, so the last plan proves its hang
           again: a burned one allocates with the step limit *)
        match List.rev plans with
        | Some p :: _ ->
            let words limit =
              let before = Gc.minor_words () in
              expect_hang "ghost = 1"
                (Interp.Plan.execute ~config:(limit_config limit) p ~inputs:[]);
              Gc.minor_words () -. before
            in
            let small = words 10_000 in
            let large = words 1_000_000 in
            if large > 2. *. small then
              Alcotest.failf "%.0f minor words at limit 10^6 against %.0f at 10^4" large small
        | _ -> Alcotest.fail "ghost = 1 does not compile");
    Alcotest.test_case "a graph that fails validation fails at every valuation" `Quick (fun () ->
        let g = Graph.create "bad" in
        Graph.add_array g "x" Dtype.F64 [ Symbolic.Expr.sym "N" ];
        let st = Graph.state g (Graph.add_state g "s") in
        ignore (State.add_node st (Node.Access "ghost"));
        let stage = Interp.Plan.compile g in
        List.iter
          (fun symbols ->
            match (exec_tree g ~symbols ~inputs:[], stage ~symbols) with
            | Error (Interp.Exec.Invalid_graph _ as f), Error f' ->
                Alcotest.(check string)
                  ("fault at " ^ valuation_to_string symbols)
                  (Interp.Exec.fault_to_string f) (Interp.Exec.fault_to_string f')
            | _ -> Alcotest.fail "expected the validation fault from both tiers")
          [ [ ("N", 4) ]; []; [ ("N", 5) ] ]);
    Alcotest.test_case "an unbound shape symbol faults next to a valuation that binds it" `Quick
      (fun () ->
        let g = Workloads.Npbench.scale () in
        let stage = Interp.Plan.compile g in
        List.iter
          (fun symbols ->
            let inputs = if symbols = [] then [] else inputs_for g ~symbols in
            check_same
              ("scale at " ^ valuation_to_string symbols)
              (exec_tree ~config:cov_config g ~symbols ~inputs)
              (snd (run_staged ~config:cov_config stage ~symbols ~inputs)))
          [ []; [ ("N", 4) ]; []; [ ("N", 5) ] ]);
    Alcotest.test_case "a per-program stage exception comes after the shape faults" `Quick
      (fun () ->
        (* a removed start state passes validation when no state is left *)
        let g = Graph.create "stateless" in
        Graph.add_array g "x" Dtype.F64 [ Symbolic.Expr.sym "N" ];
        Graph.remove_state g (Graph.add_state g "s");
        let stage = Interp.Plan.compile g in
        check_same "stateless at []"
          (exec_tree g ~symbols:[] ~inputs:[])
          (snd (run_staged ~config:cov_config stage ~symbols:[] ~inputs:[]));
        Alcotest.check_raises "tree at [N=4]" Not_found (fun () ->
            ignore (exec_tree g ~symbols:[ ("N", 4) ] ~inputs:[]));
        Alcotest.check_raises "plan at [N=4]" Not_found (fun () ->
            ignore (stage ~symbols:[ ("N", 4) ])));
    Alcotest.test_case "binding a valuation does no lowering" `Quick (fun () ->
        (* a binding concretizes shapes and sets slots; lowering a roster
           program allocates 295 to 3 355 words per container, so the
           bound tells a binding from a lowering *)
        let bindings = 50 in
        List.iter
          (fun (name, g, symbols) ->
            let lowered = Interp.Plan.compile g in
            ignore (lowered ~symbols);
            let before = Gc.minor_words () in
            for _ = 1 to bindings do
              ignore (lowered ~symbols)
            done;
            let containers = max 1 (List.length (Graph.containers g)) in
            let per_container =
              (Gc.minor_words () -. before) /. float_of_int (bindings * containers)
            in
            if per_container > 256. then
              Alcotest.failf "%s: %.0f minor words per container per binding" name per_container)
          (roster ()));
  ]

let cache_tests =
  [
    Alcotest.test_case "cache hits on repeated (digest, symbols)" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let c = Interp.Plan.Cache.create () in
        let digest = Interp.Plan.Cache.digest_of g in
        (match Interp.Plan.Cache.compile ~digest c g ~symbols:[ ("N", 4) ] with
        | Ok _ -> ()
        | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f));
        ignore (Interp.Plan.Cache.compile ~digest c g ~symbols:[ ("N", 4) ]);
        (* symbol order must not matter for the key *)
        let g2 = Workloads.Npbench.axpy () in
        let d2 = Interp.Plan.Cache.digest_of g2 in
        ignore (Interp.Plan.Cache.compile ~digest:d2 c g2 ~symbols:[ ("N", 4) ]);
        let hits, misses = Interp.Plan.Cache.stats c in
        Alcotest.(check int) "hits" 1 hits;
        Alcotest.(check int) "misses" 2 misses);
    Alcotest.test_case "cached plan executes identically to a fresh run" `Quick (fun () ->
        let g = Workloads.Npbench.gemm () in
        let symbols = [ ("N", 5) ] in
        let inputs = inputs_for g ~symbols in
        let c = Interp.Plan.Cache.create () in
        let p =
          match Interp.Plan.Cache.compile c g ~symbols with
          | Ok p -> p
          | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)
        in
        (* executing the same plan twice must not leak state between runs *)
        let o1 = Interp.Plan.execute ~config:cov_config p ~inputs in
        let o2 = Interp.Plan.execute ~config:cov_config p ~inputs in
        check_same "plan reuse" o1 o2;
        check_same "plan vs one-shot" (exec_plan ~config:cov_config g ~symbols ~inputs) o1);
    Alcotest.test_case "distinct valuations get distinct plans" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let c = Interp.Plan.Cache.create () in
        ignore (Interp.Plan.Cache.compile c g ~symbols:[ ("N", 4) ]);
        ignore (Interp.Plan.Cache.compile c g ~symbols:[ ("N", 5) ]);
        let _, misses = Interp.Plan.Cache.stats c in
        Alcotest.(check int) "misses" 2 misses;
        match Interp.Plan.Cache.compile c g ~symbols:[ ("N", 5) ] with
        | Ok p -> (
            match Interp.Plan.execute p ~inputs:[ ("x", Array.make 5 2.); ("a", [| 3. |]) ] with
            | Ok o ->
                Alcotest.(check int)
                  "N=5 plan allocates 5 elements" 5
                  (Array.length (Interp.Value.buffer o.Interp.Exec.memory "y").data)
            | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f))
        | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f));
  ]

(* admitted generated programs cover shapes the hand-built workloads do not *)
let generated_tests =
  [
    Alcotest.test_case "50 admitted generated programs per style (tree and plan)" `Quick
      (fun () ->
        List.iter
          (fun (style : Gen.Styles.t) ->
            let admitted, _stats = Gen.Admit.batch ~style ~seed:7 ~n:50 () in
            Alcotest.(check int) (style.name ^ ": admitted") 50 (List.length admitted);
            List.iter
              (fun (c : Gen.Generate.t) ->
                let symbols = Gen.Admit.concretize c.graph in
                differential ~config:cov_config c.name c.graph ~symbols
                  ~inputs:(inputs_for c.graph ~symbols))
              admitted)
          Gen.Styles.all);
  ]

(* The tier contract on random data: admitted generated programs (smoke run
   skipped, so faulting and hanging ones stay in), three valuations bound to
   one lowering, and inputs where one value in three is a special
   float. A valuation that runs clean also runs under a random Shift_index,
   which moves one index by 1 or 2 either way. *)
let specials =
  [|
    Float.nan; Float.infinity; Float.neg_infinity; 4.9e-324; -0.0; 1e308; -1e308;
    2.2250738585072014e-308;
  |]

let random_inputs rng g ~symbols =
  let value () =
    if Random.State.int rng 3 = 0 then specials.(Random.State.int rng (Array.length specials))
    else Random.State.float rng 20. -. 10.
  in
  List.map (fun (c, a) -> (c, Array.map (fun _ -> value ()) a)) (inputs_for g ~symbols)

let arb_candidate =
  QCheck.make
    ~print:(fun (style, seed, index, vseed) ->
      Printf.sprintf "%s (values from %d)"
        (Gen.Generate.candidate_name ~style ~seed ~index)
        vseed)
    QCheck.Gen.(
      quad (oneofl Gen.Styles.names) (int_bound 1_000) (int_bound 100) (int_bound 1_000_000))

let prop_tier_contract =
  QCheck.Test.make ~name:"plans match the tree-walk on random programs, valuations and inputs"
    ~count:400 arb_candidate (fun (style, seed, index, vseed) ->
      let c = Gen.Generate.candidate ~style:(Option.get (Gen.Styles.by_name style)) ~seed index in
      QCheck.assume (Result.is_ok (Gen.Admit.check ~run:false c));
      let g = c.graph in
      let rng = Random.State.make [| vseed |] in
      let free = Graph.all_free_syms g in
      let config = { cov_config with step_limit = 100_000 } in
      let stage = Interp.Plan.compile g in
      (* shifts draw from their own stream, so the valuations and inputs
         stay those of the unshifted property *)
      let shift_rng = Random.State.make [| vseed; 1 |] in
      List.iter
        (fun symbols ->
          let inputs = random_inputs rng g ~symbols in
          let name = Printf.sprintf "%s at %s" c.name (valuation_to_string symbols) in
          let tree = exec_tree ~config g ~symbols ~inputs in
          check_same name tree (snd (run_staged ~config stage ~symbols ~inputs));
          match tree with
          | Ok o when o.Interp.Exec.subsets > 0 ->
              let nth_subset = Random.State.int shift_rng o.Interp.Exec.subsets in
              let size = 1 + Random.State.int shift_rng 2 in
              let delta = if Random.State.bool shift_rng then size else -size in
              let inject = Interp.Exec.Shift_index { nth_subset; delta } in
              let config = { config with inject = Some inject } in
              check_same
                (name ^ " under " ^ Interp.Exec.injection_to_string inject)
                (exec_tree ~config g ~symbols ~inputs)
                (snd (run_staged ~config stage ~symbols ~inputs))
          | _ -> ())
        [
          Gen.Admit.concretize g;
          List.map (fun s -> (s, 1)) free;
          List.map (fun s -> (s, 1 + Random.State.int rng 9)) free;
        ];
      true)

(* difftest verdicts do not depend on what ran earlier in the process *)
let consumer_tests =
  [
    Alcotest.test_case "difftest verdict is cache-oblivious" `Quick (fun () ->
        let g, sid, mm2 = Workloads.Chain.build_with_site () in
        let site = Transforms.Xform.dataflow_site ~state:sid ~nodes:[ mm2 ] ~descr:"tile" in
        let config =
          { Fuzzyflow.Difftest.default_config with trials = 6; max_size = 6;
            concretization = [ ("N", 6) ] }
        in
        let run () =
          List.map
            (fun variant ->
              let x = Transforms.Map_tiling.make ~tile_size:3 variant in
              let r = Fuzzyflow.Difftest.test_instance ~config g x site in
              Format.asprintf "%a" Fuzzyflow.Difftest.pp_report r)
            [ Transforms.Map_tiling.Correct; Transforms.Map_tiling.Off_by_one ]
        in
        let first = run () in
        Alcotest.(check (list string)) "verdicts" first (run ()));
  ]

let () =
  Alcotest.run "plan"
    [
      ("workloads", workload_tests);
      ("injection", injection_tests);
      ("faults", fault_tests);
      ("hangs", hang_tests);
      ("staged", staged_tests);
      ("generated", generated_tests);
      ("random", [ QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_tier_contract ]);
      ("cache", cache_tests);
      ("consumers", consumer_tests);
    ]
