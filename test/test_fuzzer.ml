(* Fuzzing strategies: all modes find the vectorization size bug, coverage
   grows over trials, runs are seed-deterministic. *)

open Fuzzyflow

let vec_setup () =
  let g = Workloads.Npbench.scale () in
  let x = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible in
  let site = List.hd (x.find g) in
  let g' = Sdfg.Graph.copy g in
  let cs = x.apply g' site in
  let cut = Cutout.extract ~options:{ Cutout.symbols = [ ("N", 8) ] } g cs in
  let transformed = Sdfg.Graph.copy cut.program in
  ignore (x.apply transformed site);
  (g, cut, transformed)

let config = { Fuzzer.default_config with max_trials = 120 }

let fuzzer_tests =
  [
    Alcotest.test_case "gray-box finds the size bug quickly" `Quick (fun () ->
        let g, cut, transformed = vec_setup () in
        let r = Fuzzer.run ~config Fuzzer.Graybox ~original:g ~cutout:cut ~transformed in
        match r.trials_to_failure with
        | Some t -> Alcotest.(check bool) "fast" true (t <= 10)
        | None -> Alcotest.fail "bug not found");
    Alcotest.test_case "uniform eventually finds it too" `Quick (fun () ->
        let g, cut, transformed = vec_setup () in
        let r = Fuzzer.run ~config Fuzzer.Uniform ~original:g ~cutout:cut ~transformed in
        Alcotest.(check bool) "found" true (r.trials_to_failure <> None));
    Alcotest.test_case "coverage mode accumulates coverage" `Quick (fun () ->
        let g, cut, transformed = vec_setup () in
        let r = Fuzzer.run ~config Fuzzer.Coverage ~original:g ~cutout:cut ~transformed in
        Alcotest.(check bool) "coverage nonzero" true (r.distinct_coverage > 0));
    Alcotest.test_case "no false positive on the correct variant" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let x = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Correct in
        let site = List.hd (x.find g) in
        let g' = Sdfg.Graph.copy g in
        let cs = x.apply g' site in
        let cut = Cutout.extract ~options:{ Cutout.symbols = [ ("N", 8) ] } g cs in
        let transformed = Sdfg.Graph.copy cut.program in
        ignore (x.apply transformed site);
        let r =
          Fuzzer.run ~config:{ config with max_trials = 40 } Fuzzer.Graybox ~original:g
            ~cutout:cut ~transformed
        in
        Alcotest.(check bool) "no failure" true (r.trials_to_failure = None);
        Alcotest.(check int) "all trials run" 40 r.trials_run);
    Alcotest.test_case "seed determinism" `Quick (fun () ->
        let g, cut, transformed = vec_setup () in
        let run seed =
          (Fuzzer.run ~config:{ config with seed } Fuzzer.Graybox ~original:g ~cutout:cut
             ~transformed).trials_to_failure
        in
        Alcotest.(check bool) "same seed same result" true (run 11 = run 11));
    Alcotest.test_case "coverage-guided explores rare select branches" `Quick (fun () ->
        (* nbody_force has an i != j select; coverage should include both
           branch outcomes after a few trials *)
        let g = Workloads.Npbench.nbody_force () in
        let sid = Sdfg.Graph.start_state g in
        let st = Sdfg.Graph.state g sid in
        let entry = List.hd (Transforms.Xform.map_entries st) in
        let cut =
          Cutout.extract_dataflow ~options:{ Cutout.symbols = [ ("N", 6) ] } g ~state:sid
            ~nodes:[ entry ]
        in
        let transformed = Sdfg.Graph.copy cut.program in
        let r =
          Fuzzer.run
            ~config:{ config with max_trials = 6 }
            Fuzzer.Coverage ~original:g ~cutout:cut ~transformed
        in
        Alcotest.(check bool) "covers selects" true (r.distinct_coverage >= 2));
  ]

(* Every field of [Fuzzer.result], failure text and failing symbols
   included, pinned per mode: any change to how trials are drawn, run or
   counted shows here. *)
let show (r : Fuzzer.result) =
  Printf.sprintf "ttf=%s run=%d cov=%d crashes=%d failure=%s symbols=[%s]"
    (match r.trials_to_failure with Some t -> string_of_int t | None -> "none")
    r.trials_run r.distinct_coverage r.uninteresting_crashes
    (match r.failure with Some k -> Format.asprintf "%a" Difftest.pp_failure k | None -> "none")
    (String.concat "; " (List.map (fun (s, v) -> Printf.sprintf "%s=%d" s v) r.failing_symbols))

let oob n =
  Printf.sprintf
    "failure=fault divergence: original ok, transformed out-of-bounds access to x[%d] (shape \
     [%d]) in tasklet 0 input xv symbols=[N=%d]"
    n n n

let correct_setup () =
  let g = Workloads.Npbench.scale () in
  let x = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Correct in
  let site = List.hd (x.find g) in
  let g' = Sdfg.Graph.copy g in
  let cs = x.apply g' site in
  let cut = Cutout.extract ~options:{ Cutout.symbols = [ ("N", 8) ] } g cs in
  let transformed = Sdfg.Graph.copy cut.program in
  ignore (x.apply transformed site);
  (g, cut, transformed)

let nbody_setup () =
  let g = Workloads.Npbench.nbody_force () in
  let sid = Sdfg.Graph.start_state g in
  let st = Sdfg.Graph.state g sid in
  let entry = List.hd (Transforms.Xform.map_entries st) in
  let cut =
    Cutout.extract_dataflow ~options:{ Cutout.symbols = [ ("N", 6) ] } g ~state:sid
      ~nodes:[ entry ]
  in
  (g, cut, Sdfg.Graph.copy cut.program)

let pinned =
  let open Fuzzer in
  [
    ("uniform", vec_setup, config, Uniform, "ttf=1 run=1 cov=0 crashes=0 " ^ oob 33);
    ("gray-box", vec_setup, config, Graybox, "ttf=1 run=1 cov=0 crashes=0 " ^ oob 1);
    ("coverage", vec_setup, config, Coverage, "ttf=1 run=1 cov=2 crashes=0 " ^ oob 1);
    ("uniform seed 3", vec_setup, { config with seed = 3 }, Uniform,
     "ttf=6 run=6 cov=0 crashes=5 " ^ oob 33);
    ("gray-box seed 9", vec_setup, { config with seed = 9 }, Graybox,
     "ttf=3 run=3 cov=0 crashes=0 " ^ oob 10);
    ("coverage seed 9", vec_setup, { config with seed = 9 }, Coverage,
     "ttf=3 run=3 cov=2 crashes=0 " ^ oob 10);
    (* found by mutating the corpus, long after it was seeded *)
    ("coverage mutation seed 16", vec_setup, { config with seed = 16; corpus_init = 1 }, Coverage,
     "ttf=60 run=60 cov=2 crashes=0 " ^ oob 15);
    ("coverage mutation seed 25", vec_setup, { config with seed = 25; corpus_init = 2 }, Coverage,
     "ttf=16 run=16 cov=2 crashes=0 " ^ oob 3);
    ("nbody coverage", nbody_setup, { config with max_trials = 6 }, Coverage,
     "ttf=none run=6 cov=4 crashes=0 failure=none symbols=[]");
    ("nbody coverage 120", nbody_setup, config, Coverage,
     "ttf=none run=120 cov=4 crashes=0 failure=none symbols=[]");
    ("correct uniform", correct_setup, config, Uniform,
     "ttf=none run=120 cov=0 crashes=63 failure=none symbols=[]");
    ("correct coverage", correct_setup, config, Coverage,
     "ttf=none run=120 cov=2 crashes=0 failure=none symbols=[]");
  ]

let pinned_tests =
  List.map
    (fun (name, setup, config, mode, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          let g, cut, transformed = setup () in
          Alcotest.(check string)
            "result" expected
            (show (Fuzzer.run ~config mode ~original:g ~cutout:cut ~transformed))))
    pinned

let () = Alcotest.run "fuzzer" [ ("fuzzer", fuzzer_tests); ("pinned", pinned_tests) ]
