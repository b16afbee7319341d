(* The static dataflow oracle: zero findings on every bundled workload,
   positive findings exactly on the known-buggy transformation variants, and
   the delta verifier / pipeline gate built on top of them. *)

open Sdfg
module B = Builder.Build

let sym = Symbolic.Expr.sym

let symbols_for name =
  match name with
  | "bert_encoder" -> Workloads.Bert.default_symbols
  | "cloudsc_synth" -> Workloads.Cloudsc.default_symbols
  | "sddmm_rank" -> [ ("LROWS", 4); ("NCOLS", 6); ("K", 3) ]
  | _ -> [ ("N", 8); ("T", 3) ]

let symbols_of g =
  List.filter (fun (s, _) -> List.mem s (Graph.all_free_syms g)) (symbols_for (Graph.name g))

let all_workloads () =
  Workloads.Npbench.all () @ Workloads.Npb_frontend.all ()
  @ [
      ("bert", Workloads.Bert.build ());
      ("cloudsc", Workloads.Cloudsc.build ());
      ("fig4", Workloads.Fig4.build ());
      ("sddmm", (let g, _, _ = Workloads.Sddmm.rank_program () in g));
    ]

(* producer tmp[i] -> consumer tmp[i-1]: fusable only when offsets are
   ignored, and then only incorrectly *)
let stencil_pair () =
  let g = Graph.create "stencil_pair" in
  Graph.add_array g "x" Dtype.F64 [ sym "N" ];
  Graph.add_array g "out" Dtype.F64 [ sym "N" ];
  Graph.add_array g ~transient:true "tmp" Dtype.F64 [ sym "N" ];
  let sid = Graph.add_state g "main" in
  let st = Graph.state g sid in
  let m1 =
    B.mapped_tasklet g st ~label:"prod"
      ~map:[ ("i", "1:N-1") ]
      ~inputs:[ ("v", B.mem "x" "i") ]
      ~code:"o = v * 2.0"
      ~outputs:[ ("o", B.mem "tmp" "i") ]
      ()
  in
  ignore
    (B.mapped_tasklet g st ~label:"cons"
       ~map:[ ("i", "1:N-1") ]
       ~inputs:[ ("v", B.mem "tmp" "i-1") ]
       ~code:"o = v + 1.0"
       ~outputs:[ ("o", B.mem "out" "i") ]
       ~input_nodes:[ ("tmp", List.assoc "tmp" m1.B.out_access) ]
       ());
  g

let finding_passes fs = List.map (fun (f : Analysis.Report.finding) -> f.pass) fs

let oracle_tests =
  [
    Alcotest.test_case "zero findings on every bundled workload" `Quick (fun () ->
        List.iter
          (fun (name, g) ->
            match Analysis.Oracle.analyze ~symbols:(symbols_of g) g with
            | [] -> ()
            | fs ->
                Alcotest.failf "%s: %d unexpected findings, first: %s" name (List.length fs)
                  (Analysis.Report.to_string (List.hd fs)))
          (all_workloads ()));
    Alcotest.test_case "race: silent on axpy" `Quick (fun () ->
        let g = List.assoc "axpy" (Workloads.Npbench.all ()) in
        Alcotest.(check int)
          "no races" 0
          (List.length (Analysis.Races.check ~carried:true ~symbols:[ ("N", 8) ] g)));
    Alcotest.test_case "race: fires on offset-ignoring map fusion" `Quick (fun () ->
        let g = stencil_pair () in
        let x = Transforms.Map_fusion.make Transforms.Map_fusion.Ignore_offsets in
        let sites = x.Transforms.Xform.find g in
        Alcotest.(check bool) "has a site" true (sites <> []);
        (match Analysis.Delta.verify ~symbols:[ ("N", 8) ] g x (List.hd sites) with
        | Some fs ->
            Alcotest.(check bool)
              "carried race on tmp" true
              (List.exists
                 (fun (f : Analysis.Report.finding) ->
                   f.pass = Analysis.Report.Race && f.container = "tmp")
                 fs)
        | None -> Alcotest.fail "site went stale");
        (* the correct variant refuses the offset site entirely *)
        let correct = Transforms.Map_fusion.make Transforms.Map_fusion.Correct in
        Alcotest.(check int) "no correct-fusion site" 0
          (List.length (correct.Transforms.Xform.find g)));
    Alcotest.test_case "race: off-by-one tiling duplicates accumulation" `Quick (fun () ->
        let g = Workloads.Npbench.gemm () in
        let x = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Off_by_one in
        let sites = x.Transforms.Xform.find g in
        Alcotest.(check bool) "has a site" true (sites <> []);
        match Analysis.Delta.verify ~symbols:[ ("N", 8) ] g x (List.hd sites) with
        | Some fs ->
            Alcotest.(check bool)
              "error-severity race" true
              (List.exists
                 (fun (f : Analysis.Report.finding) ->
                   f.pass = Analysis.Report.Race && f.severity = Analysis.Report.Error)
                 fs)
        | None -> Alcotest.fail "site went stale");
  ]

let bounds_tests =
  [
    Alcotest.test_case "no-remainder tiling goes out of bounds" `Quick (fun () ->
        let g = Workloads.Fig4.build () in
        let x = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.No_remainder in
        let sites = x.Transforms.Xform.find g in
        Alcotest.(check bool) "has sites" true (sites <> []);
        match Analysis.Delta.verify ~symbols:[ ("N", 8) ] g x (List.hd sites) with
        | Some fs ->
            Alcotest.(check bool)
              "OOB reported" true
              (List.mem Analysis.Report.Out_of_bounds (finding_passes fs))
        | None -> Alcotest.fail "site went stale");
    Alcotest.test_case "exact tiling stays clean" `Quick (fun () ->
        let g = Workloads.Fig4.build () in
        let x = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Correct in
        List.iter
          (fun site ->
            match Analysis.Delta.verify ~symbols:[ ("N", 8) ] g x site with
            | Some fs -> Alcotest.(check int) "no findings" 0 (List.length fs)
            | None -> Alcotest.fail "site went stale")
          (x.Transforms.Xform.find g));
    Alcotest.test_case "hand-built off-by-one read" `Quick (fun () ->
        let g = Graph.create "obo" in
        Graph.add_array g "x" Dtype.F64 [ sym "N" ];
        Graph.add_array g "y" Dtype.F64 [ sym "N" ];
        let sid = Graph.add_state g "main" in
        let st = Graph.state g sid in
        ignore
          (B.mapped_tasklet g st ~label:"shift"
             ~map:[ ("i", "0:N-1") ]
             ~inputs:[ ("v", B.mem "x" "i+1") ]
             ~code:"o = v"
             ~outputs:[ ("o", B.mem "y" "i") ]
             ());
        let fs = Analysis.Bounds.check ~symbols:[ ("N", 8) ] g in
        Alcotest.(check bool)
          "x[i+1] flagged" true
          (List.exists (fun (f : Analysis.Report.finding) -> f.container = "x") fs));
    Alcotest.test_case "triangular nests are not flagged" `Quick (fun () ->
        (* j in 0:i-1 is empty at i = 0; the checker must prune, not flag *)
        let g = Graph.create "tri" in
        Graph.add_array g "A" Dtype.F64 [ sym "N"; sym "N" ];
        Graph.add_array g "s" Dtype.F64 [ sym "N" ];
        let sid = Graph.add_state g "main" in
        let st = Graph.state g sid in
        ignore
          (B.mapped_tasklet g st ~label:"lower"
             ~map:[ ("i", "0:N-1"); ("j", "0:i-1") ]
             ~inputs:[ ("v", B.mem "A" "i, j") ]
             ~code:"o = v"
             ~outputs:[ ("o", B.mem ~wcr:Sdfg.Memlet.Wcr_sum "s" "i") ]
             ());
        Alcotest.(check int) "clean" 0
          (List.length (Analysis.Bounds.check ~symbols:[ ("N", 8) ] g)));
  ]

let defuse_tests =
  [
    Alcotest.test_case "reads mirror the cutout extractor" `Quick (fun () ->
        List.iter
          (fun (name, g) ->
            Alcotest.(check (list string))
              (name ^ " reads") (Fuzzyflow.Cutout.program_reads g) (Analysis.Defuse.reads g))
          (all_workloads ()));
    Alcotest.test_case "uninitialized transient read" `Quick (fun () ->
        let g = Graph.create "ubd" in
        Graph.add_array g "y" Dtype.F64 [ sym "N" ];
        Graph.add_array g ~transient:true "ghost" Dtype.F64 [ sym "N" ];
        let sid = Graph.add_state g "main" in
        let st = Graph.state g sid in
        ignore
          (B.mapped_tasklet g st ~label:"use"
             ~map:[ ("i", "0:N-1") ]
             ~inputs:[ ("v", B.mem "ghost" "i") ]
             ~code:"o = v"
             ~outputs:[ ("o", B.mem "y" "i") ]
             ());
        match Analysis.Defuse.check g with
        | [ f ] ->
            Alcotest.(check string) "container" "ghost" f.Analysis.Report.container;
            Alcotest.(check bool) "pass" true (f.pass = Analysis.Report.Use_before_def)
        | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
    Alcotest.test_case "dead transient write" `Quick (fun () ->
        let g = Graph.create "dead" in
        Graph.add_array g "x" Dtype.F64 [ sym "N" ];
        Graph.add_array g ~transient:true "sink" Dtype.F64 [ sym "N" ];
        let sid = Graph.add_state g "main" in
        let st = Graph.state g sid in
        ignore
          (B.mapped_tasklet g st ~label:"drop"
             ~map:[ ("i", "0:N-1") ]
             ~inputs:[ ("v", B.mem "x" "i") ]
             ~code:"o = v"
             ~outputs:[ ("o", B.mem "sink" "i") ]
             ());
        match Analysis.Defuse.check g with
        | [ f ] ->
            Alcotest.(check string) "container" "sink" f.Analysis.Report.container;
            Alcotest.(check bool) "pass" true (f.pass = Analysis.Report.Dead_write)
        | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
  ]

(* a graph with a pre-existing defect: the delta verifier must not blame the
   transformation for it *)
let with_preexisting_defect () =
  let g = Graph.create "dirty" in
  Graph.add_array g "x" Dtype.F64 [ sym "N" ];
  Graph.add_array g "y" Dtype.F64 [ sym "N" ];
  Graph.add_array g ~transient:true "ghost" Dtype.F64 [ sym "N" ];
  let sid = Graph.add_state g "main" in
  let st = Graph.state g sid in
  ignore
    (B.mapped_tasklet g st ~label:"haunt"
       ~map:[ ("i", "0:N-1") ]
       ~inputs:[ ("v", B.mem "ghost" "i") ]
       ~code:"o = v"
       ~outputs:[ ("o", B.mem "y" "i") ]
       ());
  ignore
    (B.mapped_tasklet g st ~label:"scale"
       ~map:[ ("i", "0:N-1") ]
       ~inputs:[ ("v", B.mem "x" "i") ]
       ~code:"o = v * 2.0"
       ~outputs:[ ("o", B.mem "y" "i") ]
       ());
  g

(* ---- the delta's reference formula ---------------------------------------- *)

(* [Defuse.check_coverage] as it was before its per-state accesses were
   hoisted: every transient's reads re-propagate every state. *)
let reference_coverage ?(symbols = []) g =
  let declared =
    let shape_syms =
      List.concat_map
        (fun (_, (d : Graph.datadesc)) -> List.concat_map Symbolic.Expr.free_syms d.shape)
        (Graph.containers g)
    in
    List.sort_uniq compare (Graph.symbols g @ shape_syms @ List.map fst symbols)
  in
  let valuation =
    List.map (fun s -> (s, match List.assoc_opt s symbols with Some v -> v | None -> 8)) declared
  in
  let bounds s = if List.mem s declared then (Some 1, None) else (None, None) in
  match Propagate.summarize ~bounds g with
  | exception _ -> []
  | su ->
      let read_accesses c =
        List.concat_map
          (fun (_, st) ->
            List.filter_map
              (fun (a : Propagate.access) ->
                if a.Propagate.container = c && a.Propagate.kind = Propagate.Read then
                  Some a.Propagate.subset
                else None)
              (Propagate.state_accesses g st))
          (Graph.states g)
      in
      let env = Symbolic.Expr.Env.of_list valuation in
      let in_shape (d : Graph.datadesc) el =
        List.length el = List.length d.shape
        && List.for_all2
             (fun e dim ->
               match Symbolic.Expr.eval env dim with n -> e >= 0 && e < n | exception _ -> false)
             el d.shape
      in
      let param_only sub =
        List.for_all (fun s -> List.mem s declared) (Symbolic.Subset.free_syms sub)
      in
      List.filter_map
        (fun (c, (d : Graph.datadesc)) ->
          if not d.transient then None
          else
            match List.assoc_opt c su.Propagate.writes with
            | Some w when param_only w ->
                List.find_map
                  (fun r ->
                    if not (param_only r) then None
                    else
                      match Analysis.Deps.uncovered ~bounds ~symbols:valuation r w with
                      | Some (va, el) when in_shape d el ->
                          Some
                            (Analysis.Report.make ~pass:Analysis.Report.Use_before_def
                               ~severity:Analysis.Report.Error ~container:c
                               (Printf.sprintf
                                  "transient read %s exceeds the write set %s: element \
                                   [%s] is read but never written under {%s}"
                                  (Symbolic.Subset.to_string r)
                                  (Symbolic.Subset.to_string w)
                                  (String.concat "," (List.map string_of_int el))
                                  (String.concat ", "
                                     (List.map (fun (s, v) -> Printf.sprintf "%s=%d" s v) va))))
                      | _ -> None)
                  (read_accesses c)
            | _ -> None)
        (Graph.containers g)

(* The delta as two whole-program runs per side: the oracle before and
   after, and the coverage check before and after, diffed by container. *)
let reference_verify_stats ~symbols g (x : Transforms.Xform.t) site =
  let g' = Graph.copy g in
  match x.apply g' site with
  | exception Transforms.Xform.Cannot_apply _ -> None
  | _ ->
      let oracle h =
        match Analysis.Oracle.analyze_stats ~carried:true ~symbols h with
        | r -> r
        | exception _ -> ([], Analysis.Races.stats_zero)
      in
      let cov h = match reference_coverage ~symbols h with fs -> fs | exception _ -> [] in
      let before, sb = oracle g and after, sa = oracle g' in
      let pre = List.map (fun (f : Analysis.Report.finding) -> f.container) (cov g) in
      let introduced =
        List.filter (fun (f : Analysis.Report.finding) -> not (List.mem f.container pre)) (cov g')
      in
      Some
        ( Analysis.Report.sort (Analysis.Report.new_findings ~before ~after @ introduced),
          Analysis.Races.stats_add sb sa )

(* CLOUDSC and three NPBench kernels, two of which read transient halo
   cells their writes never cover (so the coverage check flags them before
   any transformation) *)
let delta_programs () =
  [ ("cloudsc", Workloads.Cloudsc.build ()); ("jacobi_2d", Workloads.Npbench.jacobi_2d ()) ]
  @ List.filter
      (fun (n, _) -> List.mem n [ "adi_lite"; "lenet_conv" ])
      (Workloads.Npb_frontend.all ())

(* their instances under both transformation sets, [limit] sites per program
   and transformation *)
let delta_instances ~limit programs =
  List.concat_map
    (fun xforms ->
      List.concat_map
        (fun (x : Transforms.Xform.t) ->
          List.concat_map
            (fun (pname, g) ->
              List.filteri (fun i _ -> i < limit) (x.Transforms.Xform.find g)
              |> List.map (fun site -> (pname, g, x, site)))
            programs)
        xforms)
    [ Transforms.Registry.as_shipped (); Transforms.Registry.all_correct () ]

let delta_tests =
  [
    Alcotest.test_case "pre-existing findings are not attributed" `Quick (fun () ->
        let g = with_preexisting_defect () in
        Alcotest.(check bool)
          "baseline is dirty" true
          (Analysis.Oracle.analyze ~symbols:[ ("N", 8) ] g <> []);
        let correct = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Correct in
        List.iter
          (fun site ->
            match Analysis.Delta.verify ~symbols:[ ("N", 8) ] g correct site with
            | Some fs -> Alcotest.(check int) "correct xform adds nothing" 0 (List.length fs)
            | None -> Alcotest.fail "site went stale")
          (correct.Transforms.Xform.find g));
    Alcotest.test_case "only new findings are reported" `Quick (fun () ->
        let g = with_preexisting_defect () in
        let buggy = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.No_remainder in
        let sites = buggy.Transforms.Xform.find g in
        Alcotest.(check bool) "has sites" true (sites <> []);
        match Analysis.Delta.verify ~symbols:[ ("N", 8) ] g buggy (List.hd sites) with
        | Some fs ->
            Alcotest.(check bool) "reports the new OOB" true
              (List.mem Analysis.Report.Out_of_bounds (finding_passes fs));
            Alcotest.(check bool) "omits the old use-before-def" true
              (not (List.mem Analysis.Report.Use_before_def (finding_passes fs)))
        | None -> Alcotest.fail "site went stale");
    Alcotest.test_case "verify_stats equals the two-sided reference" `Quick (fun () ->
        let programs = delta_programs () in
        let flagged = ref 0 in
        List.iter
          (fun (pname, g, (x : Transforms.Xform.t), site) ->
            let symbols = symbols_of g in
            let got = Analysis.Delta.verify_stats ~symbols g x site in
            (match got with Some (_ :: _, _) -> incr flagged | _ -> ());
            if got <> reference_verify_stats ~symbols g x site then
              Alcotest.failf "%s :: %s: delta differs from the reference" pname
                x.Transforms.Xform.name)
          (delta_instances ~limit:1 programs);
        (* the comparison covers introduced findings, not only empty deltas *)
        Alcotest.(check bool) "some instance has a non-empty delta" true (!flagged > 0);
        let flagged_programs =
          List.filter
            (fun (pname, g) ->
              let symbols = symbols_of g in
              let fs = Analysis.Defuse.check_coverage ~symbols g in
              if fs <> reference_coverage ~symbols g then
                Alcotest.failf "%s: coverage differs from the reference" pname;
              fs <> [])
            programs
        in
        Alcotest.(check bool) "the coverage check flags some unchanged program" true
          (flagged_programs <> []));
  ]

let pipeline_tests =
  [
    Alcotest.test_case "static gate rejects before fuzzing" `Quick (fun () ->
        let g = Workloads.Fig4.build () in
        let config =
          {
            Fuzzyflow.Difftest.default_config with
            trials = 3;
            max_size = 8;
            concretization = [ ("N", 9) ];
          }
        in
        let xforms =
          [
            Transforms.Map_tiling.make Transforms.Map_tiling.Correct;
            Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible;
          ]
        in
        let _, log = Fuzzyflow.Pipeline.optimize ~config ~static_gate:true g xforms in
        let static_steps =
          List.filter_map
            (fun (s : Fuzzyflow.Pipeline.step) ->
              match s.decision with
              | Fuzzyflow.Pipeline.Rejected_static fs -> Some fs
              | _ -> None)
            log.steps
        in
        Alcotest.(check bool) "at least one static rejection" true (static_steps <> []);
        (* the audit log names the offending container and subsets *)
        let rendered = Format.asprintf "%a" Fuzzyflow.Pipeline.pp_log log in
        let first = List.hd (List.concat static_steps) in
        Alcotest.(check bool) "log names the container" true
          (let container = first.Analysis.Report.container in
           let cl = String.length container and rl = String.length rendered in
           let rec scan i =
             i + cl <= rl && (String.sub rendered i cl = container || scan (i + 1))
           in
           scan 0);
        Alcotest.(check bool) "findings carry subsets" true
          (first.Analysis.Report.subsets <> []));
    Alcotest.test_case "gate off preserves old behavior" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let config =
          {
            Fuzzyflow.Difftest.default_config with
            trials = 3;
            max_size = 8;
            concretization = [ ("N", 8) ];
          }
        in
        let _, log =
          Fuzzyflow.Pipeline.optimize ~config g
            [ Transforms.Map_tiling.make Transforms.Map_tiling.Correct ]
        in
        Alcotest.(check bool) "no static rejections" true
          (List.for_all
             (fun (s : Fuzzyflow.Pipeline.step) ->
               match s.decision with Fuzzyflow.Pipeline.Rejected_static _ -> false | _ -> true)
             log.steps));
  ]

let () =
  Alcotest.run "analysis"
    [
      ("oracle", oracle_tests);
      ("bounds", bounds_tests);
      ("defuse", defuse_tests);
      ("delta", delta_tests);
      ("pipeline-gate", pipeline_tests);
    ]
