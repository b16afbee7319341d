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

let fault_tests =
  [
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
      ("generated", generated_tests);
      ("cache", cache_tests);
      ("consumers", consumer_tests);
    ]
