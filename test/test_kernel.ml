(* Differential proof obligation for the batched kernel tier: every workload
   (and a batch of admitted generated programs per style) runs through the
   reference tree-walk, the plan path and the kernel path, and every batched
   sweep must be per-lane bit-identical to its own width-1 run — outcomes
   down to the float bits, step counts, injection counters, coverage digests
   and fault messages. Lanes that fault exercise the per-lane replay path,
   so both the lockstep fast path and the fallback are under test. *)

open Sdfg

let exec_tree = Interp.Exec.run_tree
let exec_plan ?config g = Interp.Exec.run ?config ~tier:Interp.Exec.Plan g
let exec_kernel ?config g = Interp.Exec.run ?config ~tier:Interp.Exec.Kernel g

(* deterministic, value-diverse inputs; [lane] perturbs every element so no
   two lanes of a batch carry the same data *)
let inputs_for ?(lane = 0) g ~symbols =
  let env = Symbolic.Expr.Env.of_list symbols in
  List.filter_map
    (fun (c, (d : Graph.datadesc)) ->
      if d.transient then None
      else
        let n = List.fold_left (fun v e -> v * max 1 (Symbolic.Expr.eval env e)) 1 d.shape in
        Some
          ( c,
            Array.init n (fun i ->
                (0.125 *. float_of_int (((i * 7) + (lane * 3)) mod 23 - 11))
                +. 0.5
                +. (0.0625 *. float_of_int lane)) ))
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
      Alcotest.fail (name ^ ": reference ok, kernel faulted: " ^ Interp.Exec.fault_to_string f)
  | Error f, Ok _ ->
      Alcotest.fail (name ^ ": reference faulted, kernel ok: " ^ Interp.Exec.fault_to_string f)
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

let cov_config = { Interp.Exec.default_config with collect_coverage = true }

(* three-tier parity: the tree-walk is ground truth for both compiled tiers *)
let differential ?config name g ~symbols ~inputs =
  let t = exec_tree ?config g ~symbols ~inputs in
  check_same (name ^ " [tree=plan]") t (exec_plan ?config g ~symbols ~inputs);
  check_same (name ^ " [tree=kernel]") t (exec_kernel ?config g ~symbols ~inputs)

let workload_tests =
  [
    Alcotest.test_case "kernel matches tree and plan on every workload" `Quick (fun () ->
        List.iter
          (fun (name, g, symbols) ->
            differential ~config:cov_config name g ~symbols ~inputs:(inputs_for g ~symbols))
          (roster ()));
    Alcotest.test_case "parity holds with no inputs (garbage-free zero fill)" `Quick (fun () ->
        List.iter
          (fun (name, g, symbols) -> differential ~config:cov_config name g ~symbols ~inputs:[])
          (roster ()));
  ]

(* ---------------- batched sweeps ---------------- *)

let batch_subjects () =
  [
    ("scale", Workloads.Npbench.scale ());
    ("gemm", Workloads.Npbench.gemm ());
    ("softmax", Workloads.Npbench.softmax ());
    ("fig4", Workloads.Fig4.build ());
  ]

(* every lane of a batched sweep must equal its own width-1 plan run *)
let check_lanes ?config name g ~symbols lanes =
  let results = Interp.Exec.run_batch ?config g ~symbols ~inputs:(Array.of_list lanes) in
  Alcotest.(check int) (name ^ ": lane count") (List.length lanes) (Array.length results);
  List.iteri
    (fun l inputs ->
      check_same
        (Printf.sprintf "%s lane %d/%d" name l (List.length lanes))
        (exec_plan ?config g ~symbols ~inputs)
        results.(l))
    lanes

let batch_tests =
  [
    Alcotest.test_case "each lane equals its own width-1 run (widths 1, 3, 8)" `Quick (fun () ->
        List.iter
          (fun (name, g) ->
            let symbols = symbols_for g in
            List.iter
              (fun width ->
                let lanes = List.init width (fun lane -> inputs_for ~lane g ~symbols) in
                check_lanes ~config:cov_config
                  (Printf.sprintf "%s@%d" name width)
                  g ~symbols lanes)
              [ 1; 3; 8 ])
          (batch_subjects ()));
    Alcotest.test_case "empty batch returns no lanes" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        Alcotest.(check int) "no lanes" 0
          (Array.length (Interp.Exec.run_batch g ~symbols:(symbols_for g) ~inputs:[||])));
    Alcotest.test_case "faulting lane replays without perturbing its neighbors" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let symbols = [ ("N", 4) ] in
        let lanes =
          [
            inputs_for ~lane:0 g ~symbols;
            [ ("x", Array.make 9 1.) ] (* wrong element count: this lane faults *);
            inputs_for ~lane:2 g ~symbols;
          ]
        in
        check_lanes ~config:cov_config "scale with one bad lane" g ~symbols lanes;
        (* the bad lane really did fault — the replay path ran *)
        let results =
          Interp.Exec.run_batch ~config:cov_config g ~symbols ~inputs:(Array.of_list lanes)
        in
        (match results.(1) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "oversized input should fault");
        match results.(0) with
        | Ok _ -> ()
        | Error f -> Alcotest.fail ("good lane faulted: " ^ Interp.Exec.fault_to_string f));
    Alcotest.test_case "all-faulting batch matches per-lane faults" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        (* unbound symbol: compile fails, every lane carries the same fault *)
        let lanes = [ []; [] ] in
        check_lanes "scale without N" g ~symbols:[] lanes);
    Alcotest.test_case "injected faults are bit-identical per lane" `Quick (fun () ->
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
        List.iter
          (fun (name, g) ->
            let symbols = symbols_for g in
            let lanes = List.init 3 (fun lane -> inputs_for ~lane g ~symbols) in
            List.iter
              (fun inject ->
                let config =
                  { Interp.Exec.default_config with inject = Some inject; collect_coverage = true }
                in
                check_lanes ~config
                  (name ^ " under " ^ Interp.Exec.injection_to_string inject)
                  g ~symbols lanes)
              injections)
          [ ("scale", Workloads.Npbench.scale ()); ("fig4", Workloads.Fig4.build ()) ]);
    Alcotest.test_case "hang at a tiny step budget is identical per lane" `Quick (fun () ->
        let g = Workloads.Fig4.build () in
        let symbols = symbols_for g in
        let config = { Interp.Exec.default_config with step_limit = 17 } in
        let lanes = List.init 3 (fun lane -> inputs_for ~lane g ~symbols) in
        check_lanes ~config "fig4 at limit 17" g ~symbols lanes;
        (* a proved hang, settled in lockstep, with the limit mid-period *)
        let g = Hang_loops.periodic () in
        let config = { Interp.Exec.default_config with step_limit = 2_100 } in
        let lanes = List.init 8 (fun lane -> inputs_for ~lane g ~symbols:[]) in
        check_lanes ~config "periodic at limit 2100" g ~symbols:[] lanes);
  ]

(* ---------------- hang proofs ---------------- *)

(* The Hang_loops cases of test_plan, on the kernel tier at widths 1, 3 and
   8: each lane against the tree-walk on the same inputs, which never proves
   a hang and so is the independent full run. *)

let limit_config step_limit = { Interp.Exec.default_config with step_limit }

let check_widths ?config name g ~symbols ~lane_inputs =
  let lanes = Array.init 8 lane_inputs in
  let reference = Array.map (fun inputs -> exec_tree ?config g ~symbols ~inputs) lanes in
  List.iter
    (fun width ->
      let results =
        Interp.Exec.run_batch ?config g ~symbols ~inputs:(Array.sub lanes 0 width)
      in
      Array.iteri
        (fun l r -> check_same (Printf.sprintf "%s lane %d/%d" name l width) reference.(l) r)
        results)
    [ 1; 3; 8 ]

let hang_tests =
  let lane_inputs g lane = inputs_for ~lane g ~symbols:[] in
  [
    Alcotest.test_case "a proved hang reports the full run's steps at every offset in a period"
      `Quick (fun () ->
        let g = Hang_loops.periodic () in
        let limits = [ 100; 300 ] @ List.init Hang_loops.period (fun r -> 2_000 + r) in
        List.iter
          (fun limit ->
            check_widths ~config:(limit_config limit)
              (Printf.sprintf "periodic at limit %d" limit)
              g ~symbols:[] ~lane_inputs:(lane_inputs g))
          limits);
    Alcotest.test_case "an unbounded loop is never proved and hangs identically" `Quick (fun () ->
        let g = Hang_loops.unbounded () in
        List.iter
          (fun limit ->
            check_widths ~config:(limit_config limit)
              (Printf.sprintf "unbounded at limit %d" limit)
              g ~symbols:[] ~lane_inputs:(lane_inputs g))
          [ 300; 5_000; 20_001 ]);
    Alcotest.test_case "a container-driven exit finishes like the tree-walk" `Quick (fun () ->
        let g = Hang_loops.counter_exit () in
        check_widths ~config:cov_config "counter_exit" g ~symbols:[] ~lane_inputs:(fun lane ->
            [ ("count", [| float_of_int (lane - 3) |]) ]));
    Alcotest.test_case "injections in a later period of a hang match the tree-walk" `Quick
      (fun () ->
        let g = Hang_loops.periodic () in
        let later = 9 in
        List.iter
          (fun inject ->
            let config =
              { (limit_config 20_000) with inject = Some inject; collect_coverage = true }
            in
            check_widths ~config (Interp.Exec.injection_to_string inject) g ~symbols:[]
              ~lane_inputs:(lane_inputs g))
          [
            Interp.Exec.Burn_steps { after = later * Hang_loops.period };
            Interp.Exec.Shift_index
              { nth_subset = (later * Hang_loops.subsets_per_period) + 5; delta = 5 };
          ]);
    Alcotest.test_case "a fault under a Select branch keeps the proof off" `Quick (fun () ->
        List.iter
          (fun name ->
            let g = Hang_loops.guarded_fault name in
            check_widths ~config:(limit_config 20_000) ("guarded " ^ name) g ~symbols:[]
              ~lane_inputs:(lane_inputs g))
          [ "ghost"; "j" ]);
    Alcotest.test_case
      "a proved hang allocates the same at step limits 10^4 and 10^7, settled in lockstep" `Quick
      (fun () ->
        let g = Hang_loops.periodic () in
        let k =
          match Interp.Kernel.compile g ~symbols:[] with
          | Ok k -> k
          | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)
        in
        let words ~width limit =
          let inputs = Array.init width (lane_inputs g) in
          let before = Gc.minor_words () in
          Array.iter
            (function Error (Interp.Exec.Hang _) -> () | _ -> Alcotest.fail "expected a hang")
            (Interp.Kernel.execute_batch ~config:(limit_config limit) k ~inputs);
          Gc.minor_words () -. before
        in
        List.iter
          (fun width ->
            let small = words ~width 10_000 in
            let large = words ~width 10_000_000 in
            if large > 2. *. small then
              Alcotest.failf "width %d: %.0f minor words at limit 10^7 against %.0f at 10^4"
                width large small)
          [ 1; 8 ];
        (* the width-8 hang settles in lockstep: replaying its lanes would
           cost more than eight width-1 runs *)
        let one = words ~width:1 10_000 and eight = words ~width:8 10_000 in
        if eight >= 8. *. one then
          Alcotest.failf "width 8 allocated %.0f minor words, width 1 %.0f: the batch replayed"
            eight one);
  ]

(* ---------------- generated programs ---------------- *)

let generated_tests =
  [
    Alcotest.test_case "50 admitted generated programs per style (three tiers + batch)" `Quick
      (fun () ->
        List.iter
          (fun (style : Gen.Styles.t) ->
            let admitted, _stats = Gen.Admit.batch ~style ~seed:7 ~n:50 () in
            Alcotest.(check int) (style.name ^ ": admitted") 50 (List.length admitted);
            List.iteri
              (fun i (c : Gen.Generate.t) ->
                let symbols = Gen.Admit.concretize c.graph in
                differential ~config:cov_config c.name c.graph ~symbols
                  ~inputs:(inputs_for c.graph ~symbols);
                (* batched sweep parity on a rotating sample (full width-1
                   parity above already covers every program) *)
                if i mod 5 = 0 then
                  let lanes =
                    List.init 3 (fun lane -> inputs_for ~lane c.graph ~symbols)
                  in
                  check_lanes ~config:cov_config (c.name ^ " batched") c.graph ~symbols lanes)
              admitted)
          Gen.Styles.all);
  ]

(* ---------------- kernel cache ---------------- *)

let cache_tests =
  [
    Alcotest.test_case "cache hits on repeated (digest, symbols)" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let c = Interp.Kernel.Cache.create () in
        let digest = Interp.Kernel.Cache.digest_of g in
        (match Interp.Kernel.Cache.compile ~digest c g ~symbols:[ ("N", 4) ] with
        | Ok _ -> ()
        | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f));
        ignore (Interp.Kernel.Cache.compile ~digest c g ~symbols:[ ("N", 4) ]);
        let g2 = Workloads.Npbench.axpy () in
        ignore (Interp.Kernel.Cache.compile c g2 ~symbols:[ ("N", 4) ]);
        let hits, misses = Interp.Kernel.Cache.stats c in
        Alcotest.(check int) "hits" 1 hits;
        Alcotest.(check int) "misses" 2 misses);
    Alcotest.test_case "one digest keys both the plan and kernel caches" `Quick (fun () ->
        let g = Workloads.Npbench.gemm () in
        Alcotest.(check string)
          "same digest" (Interp.Plan.Cache.digest_of g) (Interp.Kernel.Cache.digest_of g));
    Alcotest.test_case "cached kernel re-executes without state leaks" `Quick (fun () ->
        let g = Workloads.Npbench.gemm () in
        let symbols = [ ("N", 5) ] in
        let c = Interp.Kernel.Cache.create () in
        let k =
          match Interp.Kernel.Cache.compile c g ~symbols with
          | Ok k -> k
          | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)
        in
        let lanes = Array.init 4 (fun lane -> inputs_for ~lane g ~symbols) in
        let r1 = Interp.Kernel.execute_batch ~config:cov_config k ~inputs:lanes in
        let r2 = Interp.Kernel.execute_batch ~config:cov_config k ~inputs:lanes in
        Array.iteri (fun l a -> check_same (Printf.sprintf "reuse lane %d" l) a r2.(l)) r1;
        check_same "batch vs one-shot"
          (exec_plan ~config:cov_config g ~symbols ~inputs:lanes.(2))
          r1.(2));
  ]

(* ---------------- consumers: difftest and fuzzer ---------------- *)

let consumer_tests =
  [
    Alcotest.test_case "difftest verdict identical at widths 1, 8, 64" `Quick (fun () ->
        let g, sid, mm2 = Workloads.Chain.build_with_site () in
        let site = Transforms.Xform.dataflow_site ~state:sid ~nodes:[ mm2 ] ~descr:"tile" in
        let run batch =
          let config =
            { Fuzzyflow.Difftest.default_config with trials = 12; max_size = 6;
              concretization = [ ("N", 6) ]; batch }
          in
          List.map
            (fun variant ->
              let x = Transforms.Map_tiling.make ~tile_size:3 variant in
              let r = Fuzzyflow.Difftest.test_instance ~config g x site in
              Format.asprintf "%a" Fuzzyflow.Difftest.pp_report r)
            [ Transforms.Map_tiling.Correct; Transforms.Map_tiling.Off_by_one ]
        in
        let serial = run 1 in
        Alcotest.(check (list string)) "width 8" serial (run 8);
        Alcotest.(check (list string)) "width 64" serial (run 64));
    Alcotest.test_case "fuzzer result identical at widths 1, 8, 64" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let x =
          Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible
        in
        let site = List.hd (x.find g) in
        let g' = Graph.copy g in
        let cs = x.apply g' site in
        let cut = Fuzzyflow.Cutout.extract ~options:{ Fuzzyflow.Cutout.symbols = [ ("N", 8) ] } g cs in
        let transformed = Graph.copy cut.Fuzzyflow.Cutout.program in
        ignore (x.apply transformed site);
        let run mode batch =
          Fuzzyflow.Fuzzer.run
            ~config:{ Fuzzyflow.Fuzzer.default_config with max_trials = 120; batch }
            mode ~original:g ~cutout:cut ~transformed
        in
        List.iter
          (fun mode ->
            let serial = run mode 1 in
            Alcotest.(check bool) "width 8" true (serial = run mode 8);
            Alcotest.(check bool) "width 64" true (serial = run mode 64))
          [ Fuzzyflow.Fuzzer.Uniform; Fuzzyflow.Fuzzer.Graybox ]);
    Alcotest.test_case "no-failure fuzz run identical at width 8" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let x = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Correct in
        let site = List.hd (x.find g) in
        let g' = Graph.copy g in
        let cs = x.apply g' site in
        let cut = Fuzzyflow.Cutout.extract ~options:{ Fuzzyflow.Cutout.symbols = [ ("N", 8) ] } g cs in
        let transformed = Graph.copy cut.Fuzzyflow.Cutout.program in
        ignore (x.apply transformed site);
        let run batch =
          Fuzzyflow.Fuzzer.run
            ~config:{ Fuzzyflow.Fuzzer.default_config with max_trials = 40; batch }
            Fuzzyflow.Fuzzer.Graybox ~original:g ~cutout:cut ~transformed
        in
        let serial = run 1 in
        Alcotest.(check bool) "exhausted budget identically" true (serial = run 8);
        Alcotest.(check int) "all trials run" 40 serial.Fuzzyflow.Fuzzer.trials_run);
  ]

let () =
  Alcotest.run "kernel"
    [
      ("workloads", workload_tests);
      ("batch", batch_tests);
      ("hangs", hang_tests);
      ("generated", generated_tests);
      ("cache", cache_tests);
      ("consumers", consumer_tests);
    ]
