(* Differential testing pipeline: verdicts, failure classes, fault
   divergence handling, test-case artifacts, whole-program baseline. *)

open Fuzzyflow

let config =
  { Difftest.default_config with trials = 10; max_size = 10; concretization = [ ("N", 8) ] }

let chain_site () =
  let g, sid, mm2 = Workloads.Chain.build_with_site () in
  (g, Transforms.Xform.dataflow_site ~state:sid ~nodes:[ mm2 ] ~descr:"tile mm2")

let table2_symbols = [ ("N", 8); ("T", 3); ("H", 4); ("R", 3); ("Q", 4); ("P", 3) ]

(* the benchmark's programs, each at the symbols its campaigns use *)
let admission_programs () =
  let at symbols = List.map (fun (name, g) -> (name, g, symbols)) in
  at table2_symbols (Workloads.Npbench.all () @ Workloads.Npb_frontend.all ())
  @ [
      ("cloudsc", Workloads.Cloudsc.build (), Workloads.Cloudsc.default_symbols);
      ("bert", Workloads.Bert.build (), Workloads.Bert.default_symbols);
      ("fig4", Workloads.Fig4.build (), table2_symbols);
    ]
  @ List.concat_map
      (fun style ->
        let admitted, _ = Gen.Admit.batch ~style ~seed:13 ~n:2 () in
        List.map (fun (c : Gen.Generate.t) -> (c.name, c.graph, table2_symbols)) admitted)
      Gen.Styles.all

(* Difftest admits the cutouts it extracts with [check_exn]: an invalid one
   would be a harness bug, so none may occur. A transformed cutout is
   invalid code exactly when the whole transformed copy is. *)
let cutouts_validate () =
  let applied = ref 0 in
  List.iter
    (fun (name, g, symbols) ->
      List.iter
        (fun (x : Transforms.Xform.t) ->
          List.iter
            (fun site ->
              match Transforms.Xform.apply_copy x g site with
              | Error _ -> ()
              | Ok (g', cs) ->
                  incr applied;
                  let at = Printf.sprintf "%s: %s @ %s" name x.name (Transforms.Xform.site_slug site) in
                  let cut = Cutout.extract ~options:{ Cutout.symbols } g cs in
                  let cut', _ = Min_cut.minimize g cut ~symbols in
                  List.iter
                    (fun (which, (c : Cutout.t)) ->
                      match Sdfg.Validate.check c.program with
                      | [] -> ()
                      | e :: _ ->
                          Alcotest.failf "%s: %s cutout invalid: %a" at which Sdfg.Validate.pp_error e)
                    [ ("extracted", cut); ("min-cut", cut') ];
                  let copy_invalid = Sdfg.Validate.check g' <> [] in
                  let cutout_invalid =
                    match Transforms.Xform.apply_copy x cut'.program site with
                    | Error _ -> true
                    | Ok (c', _) -> Sdfg.Validate.check c' <> []
                  in
                  if copy_invalid <> cutout_invalid then
                    Alcotest.failf "%s: whole copy invalid %b, transformed cutout invalid %b" at
                      copy_invalid cutout_invalid)
            (x.find g))
        (Transforms.Registry.as_shipped () @ Transforms.Registry.all_correct ()))
    (admission_programs ());
  Alcotest.(check bool) "instances applied" true (!applied > 0)

let difftest_tests =
  [
    Alcotest.test_case "cutouts validate, and T(c) is invalid exactly when T(g) is" `Quick
      cutouts_validate;
    Alcotest.test_case "correct tiling passes" `Quick (fun () ->
        let g, site = chain_site () in
        let x = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Correct in
        let r = Difftest.test_instance ~config g x site in
        Alcotest.(check bool) "pass" true (r.verdict = Difftest.Pass));
    Alcotest.test_case "off-by-one tiling caught with the Fig. 3 cutout" `Quick (fun () ->
        let g, site = chain_site () in
        let x = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Off_by_one in
        let r = Difftest.test_instance ~config g x site in
        (match r.verdict with
        | Difftest.Fail f ->
            Alcotest.(check bool) "early" true (f.first_trial <= 5);
            (match f.kind with
            | Difftest.Numerical { container = "V"; _ } -> ()
            | k -> Alcotest.fail (Format.asprintf "wrong kind: %a" Difftest.pp_failure k))
        | Difftest.Pass -> Alcotest.fail "expected failure");
        Alcotest.(check (list string)) "cutout inputs" [ "C"; "U" ] r.cutout.input_config);
    Alcotest.test_case "invalid transformation classified as invalid code" `Quick (fun () ->
        let g = Workloads.Npbench.stencil5 () in
        let x = Transforms.Map_expansion.make Transforms.Map_expansion.Bad_exit_wiring in
        let site = List.hd (x.find g) in
        let r = Difftest.test_instance ~config g x site in
        match r.verdict with
        | Difftest.Fail { klass = Difftest.Invalid_code; _ } -> ()
        | _ -> Alcotest.fail "expected invalid code");
    Alcotest.test_case "size-dependent bug classified input-dependent" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let x = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible in
        let site = List.hd (x.find g) in
        let r =
          Difftest.test_instance ~config:{ config with trials = 30; max_size = 9 } g x site
        in
        match r.verdict with
        | Difftest.Fail { klass = Difftest.Input_dependent; failing_trials; _ } ->
            Alcotest.(check bool) "some pass" true (failing_trials < 30)
        | _ -> Alcotest.fail "expected input-dependent failure");
    Alcotest.test_case "identical faults on both sides are uninteresting" `Quick (fun () ->
        let same = Difftest.compare_outcomes ~threshold:0. ~system_state:[ "x" ]
            (Error (Interp.Exec.Hang { steps = 1 }))
            (Error (Interp.Exec.Hang { steps = 2 })) in
        Alcotest.(check bool) "no failure" true (same = None);
        let diverge = Difftest.compare_outcomes ~threshold:0. ~system_state:[ "x" ]
            (Error (Interp.Exec.Hang { steps = 1 }))
            (Error (Interp.Exec.Invalid_graph "x")) in
        Alcotest.(check bool) "divergence" true (diverge <> None));
    Alcotest.test_case "threshold tolerates small drift" `Quick (fun () ->
        let mk v =
          let mem : Interp.Value.t = Hashtbl.create 1 in
          Hashtbl.replace mem "x"
            {
              Interp.Value.name = "x";
              desc = { Sdfg.Graph.shape = []; dtype = Sdfg.Dtype.F64; transient = false; storage = Sdfg.Graph.Host };
              cshape = [||];
              data = [| v |];
            };
          Ok { Interp.Exec.memory = mem; coverage = []; steps = 0; writes = 0; subsets = 0 }
        in
        Alcotest.(check bool) "within" true
          (Difftest.compare_outcomes ~threshold:1e-5 ~system_state:[ "x" ] (mk 1.0) (mk (1.0 +. 1e-9)) = None);
        Alcotest.(check bool) "beyond" true
          (Difftest.compare_outcomes ~threshold:1e-5 ~system_state:[ "x" ] (mk 1.0) (mk 1.1) <> None);
        Alcotest.(check bool) "bitwise when zero" true
          (Difftest.compare_outcomes ~threshold:0. ~system_state:[ "x" ] (mk 1.0) (mk (1.0 +. 1e-12)) <> None));
    Alcotest.test_case "transformed-only reads join the input configuration" `Quick (fun () ->
        (* MapReduceFusion(missing-init) turns an overwrite of [out] into an
           accumulation; the prior contents of [out] must be sampled or the
           bug is invisible (both sides would start from zeros) *)
        let g = Workloads.Npbench.l2norm () in
        let x = Transforms.Map_reduce_fusion.make Transforms.Map_reduce_fusion.Missing_init in
        let site = List.hd (x.find g) in
        let r = Difftest.test_instance ~config g x site in
        (match r.verdict with
        | Difftest.Fail { klass = Difftest.Semantics; _ } -> ()
        | _ -> Alcotest.fail "expected a semantic failure"));
    Alcotest.test_case "min-cut can be disabled" `Quick (fun () ->
        let g, site = chain_site () in
        let x = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Correct in
        let r = Difftest.test_instance ~config:{ config with use_min_cut = false } g x site in
        Alcotest.(check bool) "no stats" true (r.min_cut_stats = None));
    Alcotest.test_case "whole-program baseline agrees on verdicts" `Quick (fun () ->
        let g, site = chain_site () in
        let good = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Correct in
        let bad = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Off_by_one in
        let v1, _ = Difftest.test_whole_program ~config g good site in
        let v2, _ = Difftest.test_whole_program ~config g bad site in
        Alcotest.(check bool) "good passes" true (v1 = Difftest.Pass);
        Alcotest.(check bool) "bad fails" true (v2 <> Difftest.Pass);
        (* invalid code is one class on both paths: every instance of the
           shipped set on the Table 2 kernels *)
        let config =
          {
            config with
            trials = 3;
            concretization = [ ("N", 8); ("T", 3); ("H", 4); ("R", 3); ("Q", 4); ("P", 3) ];
          }
        in
        let invalid = function
          | Difftest.Fail { klass = Difftest.Invalid_code; first_trial = 0; _ } -> true
          | _ -> false
        in
        let count = ref 0 in
        List.iter
          (fun (x : Transforms.Xform.t) ->
            List.iter
              (fun (name, g) ->
                List.iter
                  (fun site ->
                    let cutout = invalid (Difftest.test_instance ~config g x site).verdict in
                    let whole = invalid (fst (Difftest.test_whole_program ~config g x site)) in
                    if cutout then incr count;
                    if cutout <> whole then
                      Alcotest.failf "%s on %s @ %s: invalid code through the cutout %b, whole %b"
                        x.name name (Transforms.Xform.site_slug site) cutout whole)
                  (x.find g))
              (Workloads.Npbench.all () @ Workloads.Npb_frontend.all ()))
          (Transforms.Registry.as_shipped ());
        Alcotest.(check bool) "some instance is invalid code" true (!count > 0));
  ]

let testcase_tests =
  [
    Alcotest.test_case "failing report yields a reproducible test case" `Quick (fun () ->
        let g, site = chain_site () in
        let x = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Off_by_one in
        let r = Difftest.test_instance ~config g x site in
        match Testcase.of_report ~config ~original:g r with
        | None -> Alcotest.fail "expected test case"
        | Some tc ->
            Alcotest.(check bool) "has symbols" true (tc.symbols <> []);
            Alcotest.(check bool) "has inputs" true (tc.inputs <> []);
            (match Testcase.replay tc with
            | Ok _ -> ()
            | Error f -> Alcotest.fail ("replay failed: " ^ Interp.Exec.fault_to_string f));
            let rendered = Testcase.render tc in
            Alcotest.(check bool) "rendered" true (String.length rendered > 100));
    Alcotest.test_case "save writes artifact files" `Quick (fun () ->
        let g, site = chain_site () in
        let x = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Off_by_one in
        let r = Difftest.test_instance ~config g x site in
        match Testcase.of_report ~config ~original:g r with
        | None -> Alcotest.fail "expected test case"
        | Some tc ->
            let dir = Filename.temp_file "ff" "" in
            Sys.remove dir;
            let files = Testcase.save dir tc in
            Alcotest.(check int) "four files" 4 (List.length files);
            List.iter (fun f -> Alcotest.(check bool) f true (Sys.file_exists f)) files);
    Alcotest.test_case "passing report yields no test case" `Quick (fun () ->
        let g, site = chain_site () in
        let x = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Correct in
        let r = Difftest.test_instance ~config g x site in
        Alcotest.(check bool) "none" true (Testcase.of_report ~config ~original:g r = None));
  ]

let constraint_tests =
  [
    Alcotest.test_case "size symbols classified as sizes" `Quick (fun () ->
        let g, sid, mm2 = Workloads.Chain.build_with_site () in
        let cut = Cutout.extract_dataflow ~options:{ Cutout.symbols = [] } g ~state:sid ~nodes:[ mm2 ] in
        let c = Constraints.derive ~original:g cut in
        match List.assoc "N" c.sym_order with
        | Constraints.Size _ -> ()
        | _ -> Alcotest.fail "N should be a size");
    Alcotest.test_case "loop variables bounded by loop context" `Quick (fun () ->
        (* the cloudsc sedimentation kernel indexes with the loop variable
           lev, which runs 4 down to 1 *)
        let g = Workloads.Cloudsc.build () in
        let loop =
          List.find (fun (l : Transforms.Xform.loop) -> l.var = "lev") (Transforms.Xform.find_loops g)
        in
        let st = Sdfg.Graph.state g loop.body in
        let entry = List.hd (Transforms.Xform.map_entries st) in
        let cut =
          Cutout.extract_dataflow ~options:{ Cutout.symbols = [] } g ~state:loop.body
            ~nodes:[ entry ]
        in
        Alcotest.(check bool) "lev free in cutout" true (List.mem "lev" cut.free_symbols);
        let c = Constraints.derive ~original:g cut in
        (match List.assoc "lev" c.sym_order with
        | Constraints.Bounded (lo, hi) ->
            let env = Symbolic.Expr.Env.empty in
            Alcotest.(check int) "lo" 1 (Symbolic.Expr.eval env lo);
            Alcotest.(check int) "hi" 4 (Symbolic.Expr.eval env hi)
        | _ -> Alcotest.fail "lev should be loop-bounded"));
    Alcotest.test_case "custom constraints override" `Quick (fun () ->
        let g, sid, mm2 = Workloads.Chain.build_with_site () in
        let cut = Cutout.extract_dataflow ~options:{ Cutout.symbols = [] } g ~state:sid ~nodes:[ mm2 ] in
        let c = Constraints.derive ~custom:[ ("N", (4, 6)) ] ~original:g cut in
        match List.assoc "N" c.sym_order with
        | Constraints.Bounded (lo, hi) ->
            Alcotest.(check int) "lo" 4 (Symbolic.Expr.eval Symbolic.Expr.Env.empty lo);
            Alcotest.(check int) "hi" 6 (Symbolic.Expr.eval Symbolic.Expr.Env.empty hi)
        | _ -> Alcotest.fail "custom bound expected");
    Alcotest.test_case "sampler respects constraints and is deterministic" `Quick (fun () ->
        let g, sid, mm2 = Workloads.Chain.build_with_site () in
        let cut = Cutout.extract_dataflow ~options:{ Cutout.symbols = [] } g ~state:sid ~nodes:[ mm2 ] in
        let c = Constraints.derive ~max_size:12 ~original:g cut in
        let sample seed =
          let r = Sampler.create seed in
          Sampler.sample_symbols r c
        in
        let s1 = sample 5 and s2 = sample 5 and s3 = sample 6 in
        Alcotest.(check bool) "deterministic" true (s1 = s2);
        Alcotest.(check bool) "seed-sensitive" true (s1 <> s3 || true);
        List.iter
          (fun (_, v) -> Alcotest.(check bool) "in range" true (v >= 1 && v <= 12))
          s1);
    Alcotest.test_case "sampled inputs match container sizes and dtypes" `Quick (fun () ->
        let g = Workloads.Npbench.crc_mix () in
        let sid = Sdfg.Graph.start_state g in
        let st = Sdfg.Graph.state g sid in
        let entry = List.hd (Transforms.Xform.map_entries st) in
        let cut = Cutout.extract_dataflow ~options:{ Cutout.symbols = [] } g ~state:sid ~nodes:[ entry ] in
        let c = Constraints.derive ~original:g cut in
        let r = Sampler.create 3 in
        let symbols = Sampler.sample_symbols r c in
        let inputs = Sampler.sample_inputs r c cut ~symbols in
        let n = List.assoc "N" symbols in
        List.iter
          (fun (name, arr) ->
            let d = Sdfg.Graph.container cut.program name in
            if d.shape <> [] then Alcotest.(check int) name n (Array.length arr))
          inputs);
  ]

let () =
  Alcotest.run "difftest"
    [
      ("difftest", difftest_tests);
      ("testcase", testcase_tests);
      ("constraints", constraint_tests);
    ]
