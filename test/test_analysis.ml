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

exception Alarm

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

(* The container read and write sets of the leaf view, built the way the
   propagated summary builds them: a WCR write also reads its target, and
   interstate edges read scalars. *)
let leaf_view g =
  let leaves = List.concat_map (fun (_, st) -> Propagate.leaves g st) (Graph.states g) in
  let names sel =
    List.filter_map
      (fun (l : Propagate.leaf) -> if sel l.kind then Some l.container else None)
      leaves
  in
  ( List.sort_uniq compare
      (names (function Propagate.Read | Write (Some _) -> true | Write None -> false)
      @ List.concat_map (Propagate.interstate_reads g) (Graph.istate_edges g)),
    List.sort_uniq compare (names Propagate.is_write) )

let defuse_tests =
  [
    Alcotest.test_case "leaf and access-node views agree" `Quick (fun () ->
        (* CLOUDSC's post-processing kernels put their WCR on the
           tasklet-to-exit edge only, so the access-node view sees those
           accumulations as plain writes *)
        let leaf_only name =
          if name = "cloudsc" then [ "post_i"; "post_l"; "post_q"; "post_t" ] else []
        in
        let generated =
          List.concat_map
            (fun (style : Gen.Styles.t) ->
              let admitted, _ = Gen.Admit.batch ~style ~seed:7 ~n:50 () in
              Alcotest.(check int) (style.name ^ ": admitted") 50 (List.length admitted);
              List.map (fun (c : Gen.Generate.t) -> (c.name, c.graph)) admitted)
            Gen.Styles.all
        in
        List.iter
          (fun (name, g) ->
            let reads, writes = leaf_view g in
            Alcotest.(check (list string))
              (name ^ " reads")
              (List.sort compare (Propagate.program_reads g @ leaf_only name))
              reads;
            Alcotest.(check (list string)) (name ^ " writes") (Propagate.program_writes g) writes)
          (all_workloads () @ generated));
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
  let su = Propagate.summarize ~bounds ~accesses:(fun _ st -> Propagate.state_accesses g st) g in
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
           match Symbolic.Expr.eval env dim with
           | n -> e >= 0 && e < n
           | exception (Symbolic.Expr.Unbound_symbol _ | Symbolic.Expr.Division_by_zero) ->
               false)
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

(* One side of the reference: the whole-program oracle and coverage check,
   without a memo. *)
let reference_side ~symbols h =
  (Analysis.Oracle.analyze_stats ~carried:true ~symbols h, reference_coverage ~symbols h)

(* The delta of two sides: the oracle before and after, and the coverage
   check before and after, diffed by container. *)
let reference_delta ((before, sb), cov_before) ((after, sa), cov_after) =
  let pre = List.map (fun (f : Analysis.Report.finding) -> f.container) cov_before in
  let introduced =
    List.filter (fun (f : Analysis.Report.finding) -> not (List.mem f.container pre)) cov_after
  in
  ( Analysis.Report.sort (Analysis.Report.new_findings ~before ~after @ introduced),
    Analysis.Races.stats_add sb sa )

(* The delta as two whole-program runs per side; a copy that fails
   validation is not analyzed and leaves the unchanged program's counters.
   [base] is the unchanged program's side, when the caller already has it. *)
let reference_verify_stats ?base ~symbols g (x : Transforms.Xform.t) site =
  let g' = Graph.copy g in
  match x.apply g' site with
  | exception Transforms.Xform.Cannot_apply _ -> None
  | _ ->
      let ((_, stats), _) as base =
        match base with Some b -> Lazy.force b | None -> reference_side ~symbols g
      in
      if Validate.check g' <> [] then Some ([], stats)
      else Some (reference_delta base (reference_side ~symbols g'))

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

(* CLOUDSC's first three sites per transformation and the first site on
   every fourth Table 2 kernel, under both transformation sets, in
   Campaign.run's order: transformations outermost, then programs *)
let campaign_order_instances () =
  let kernels =
    List.filteri
      (fun i _ -> i mod 4 = 0)
      (Workloads.Npbench.all () @ Workloads.Npb_frontend.all ())
  in
  let programs =
    (("cloudsc", Workloads.Cloudsc.build ()), 3) :: List.map (fun p -> (p, 1)) kernels
  in
  List.concat_map
    (fun (x : Transforms.Xform.t) ->
      List.concat_map
        (fun ((pname, g), limit) ->
          List.filteri (fun i _ -> i < limit) (x.Transforms.Xform.find g)
          |> List.map (fun site -> (pname, g, x, site)))
        programs)
    (Transforms.Registry.as_shipped () @ Transforms.Registry.all_correct ())

(* the delta of [x] at [site] through [memo], unless it equals [expected] *)
let delta_differs ~memo g (x : Transforms.Xform.t) site expected =
  let got =
    match Transforms.Xform.apply_copy x g site with
    | Ok (g', _) -> Some (Analysis.Delta.between ~memo ~symbols:(symbols_of g) g (Validate.admit g'))
    | Error _ -> None
  in
  if got <> expected then
    Alcotest.failf "%s @ %s: delta differs from the reference" x.Transforms.Xform.name
      (Transforms.Xform.site_slug site);
  got

let checks memo = (Analysis.Delta.memo_stats memo).Analysis.Reuse.checks
let deps memo = (Analysis.Delta.memo_stats memo).Analysis.Reuse.deps

(* two states: "init" sets k on its edge to "shift", which reads x[i + k] *)
let shifted ~k =
  let g = Graph.create "shifted" in
  Graph.add_symbol g "N";
  Graph.add_array g "x" Dtype.F64 [ sym "N" ];
  Graph.add_array g "y" Dtype.F64 [ sym "N" ];
  let s0 = Graph.add_state g "init" in
  let s1 = Graph.add_state g "shift" in
  ignore (Graph.add_istate_edge g ~assigns:[ ("k", Symbolic.Expr.int k) ] s0 s1);
  ignore
    (B.mapped_tasklet g (Graph.state g s1) ~label:"shift"
       ~map:[ ("i", "0:N-1") ]
       ~inputs:[ ("v", B.mem "x" "i+k") ]
       ~code:"o = v"
       ~outputs:[ ("o", B.mem "y" "i") ]
       ());
  (g, s1)

(* one state reading x[i + 1] for i in 0:N-1, with x of N + pad elements *)
let padded ~pad =
  let g = Graph.create "padded" in
  Graph.add_symbol g "N";
  Graph.add_array g "x" Dtype.F64 [ Symbolic.Expr.add (sym "N") (Symbolic.Expr.int pad) ];
  Graph.add_array g "y" Dtype.F64 [ sym "N" ];
  let sid = Graph.add_state g "main" in
  ignore
    (B.mapped_tasklet g (Graph.state g sid) ~label:"shift"
       ~map:[ ("i", "0:N-1") ]
       ~inputs:[ ("v", B.mem "x" "i+1") ]
       ~code:"o = v"
       ~outputs:[ ("o", B.mem "y" "i") ]
       ());
  (g, sid)

(* one state copying x into the whole of y, which has N + pad elements:
   the copy's propagated write is y's full shape *)
let copied ~pad =
  let g = Graph.create "copied" in
  Graph.add_symbol g "N";
  Graph.add_array g "x" Dtype.F64 [ sym "N" ];
  Graph.add_array g "y" Dtype.F64 [ Symbolic.Expr.add (sym "N") (Symbolic.Expr.int pad) ];
  let st = Graph.state g (Graph.add_state g "main") in
  let x = State.add_node st (Node.Access "x") and y = State.add_node st (Node.Access "y") in
  ignore (State.add_edge st ~memlet:(B.mem "x" "0:N-1") x y);
  g

(* the programs through one memo, in order: each analysis must equal the
   memo-less oracle; the findings of the last *)
let through_one_memo programs =
  let memo = Analysis.Delta.create_memo () in
  let symbols = [ ("N", 8) ] in
  List.fold_left
    (fun _ g ->
      let got = Analysis.Oracle.analyze_stats ~memo ~carried:true ~symbols g in
      if got <> Analysis.Oracle.analyze_stats ~carried:true ~symbols g then
        Alcotest.failf "%s differs from the memo-less oracle" (Graph.name g);
      fst got)
    [] programs

(* [clean] and then [dirty]: [dirty]'s only difference from [clean] lies
   outside state [sid], which gains a bounds finding *)
let unchanged_state_gains_finding (clean, _) (dirty, sid) =
  Alcotest.(check bool) "the unchanged state's new bounds finding is reported" true
    (List.exists
       (fun (f : Analysis.Report.finding) ->
         f.pass = Analysis.Report.Out_of_bounds && f.state = sid && f.container = "x")
       (through_one_memo [ clean; dirty ]))

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
    Alcotest.test_case "one memo across a campaign's instances equals the reference" `Quick
      (fun () ->
        let memo = Analysis.Delta.create_memo () in
        let bases = Hashtbl.create 16 in
        let base pname g =
          match Hashtbl.find_opt bases pname with
          | Some b -> b
          | None ->
              let b = lazy (reference_side ~symbols:(symbols_of g) g) in
              Hashtbl.add bases pname b;
              b
        in
        let flagged = ref 0 in
        (* the dependence table's hits and misses during CLOUDSC's instances *)
        let cloudsc_hits = ref 0 and cloudsc_misses = ref 0 in
        List.iter
          (fun (pname, g, x, site) ->
            let expected =
              reference_verify_stats ~base:(base pname g) ~symbols:(symbols_of g) g x site
            in
            let h0, m0 = deps memo in
            (match delta_differs ~memo g x site expected with
            | Some (_ :: _, _) -> incr flagged
            | _ -> ());
            if pname = "cloudsc" then begin
              let h1, m1 = deps memo in
              cloudsc_hits := !cloudsc_hits + h1 - h0;
              cloudsc_misses := !cloudsc_misses + m1 - m0
            end)
          (campaign_order_instances ());
        Alcotest.(check bool) "some instance has a non-empty delta" true (!flagged > 0);
        let hits, misses = checks memo in
        Alcotest.(check bool) "most per-state checks are served" true (hits > misses);
        Alcotest.(check bool) "most of CLOUDSC's dependence queries are served" true
          (!cloudsc_hits > !cloudsc_misses));
    Alcotest.test_case "one memo across a pipeline's program versions equals the reference"
      `Quick (fun () ->
        (* each correct transformation's first site is checked on the current
           version, then applied to make the next one, as Pipeline.optimize
           commits a passing instance *)
        let memo = Analysis.Delta.create_memo () in
        let current = ref (Workloads.Cloudsc.build ()) in
        let symbols = symbols_of !current in
        let side = ref (reference_side ~symbols !current) in
        let versions = ref 0 in
        List.iter
          (fun (x : Transforms.Xform.t) ->
            match x.Transforms.Xform.find !current with
            | [] -> ()
            | site :: _ -> (
                let g' = Graph.copy !current in
                match x.apply g' site with
                | _ ->
                    let side' = reference_side ~symbols g' in
                    let expected = Some (reference_delta !side side') in
                    ignore (delta_differs ~memo !current x site expected);
                    current := g';
                    side := side';
                    incr versions
                | exception Transforms.Xform.Cannot_apply _ -> ()))
          (Transforms.Registry.all_correct ());
        Alcotest.(check bool) "several versions" true (!versions >= 3);
        let hits, misses = checks memo in
        Alcotest.(check bool) "versions share per-state checks" true (hits > misses));
    Alcotest.test_case "a memo re-checks exactly the states an instance changed" `Quick
      (fun () ->
        let g = Workloads.Cloudsc.build () in
        let symbols = symbols_of g in
        let states = List.length (Graph.states g) in
        let memo = Analysis.Delta.create_memo () in
        let misses_of (x : Transforms.Xform.t) site =
          let before = snd (checks memo) in
          Result.iter
            (fun (g', _) -> ignore (Analysis.Delta.between ~memo ~symbols g (Validate.admit g')))
            (Transforms.Xform.apply_copy x g site);
          snd (checks memo) - before
        in
        let tiling = Transforms.Map_tiling.make Transforms.Map_tiling.Correct in
        let sites = tiling.Transforms.Xform.find g in
        Alcotest.(check int) "the baseline and one tiled state" (states + 1)
          (misses_of tiling (List.hd sites));
        Alcotest.(check int) "another tiled state" 1 (misses_of tiling (List.nth sites 1));
        let sae =
          List.find
            (fun (x : Transforms.Xform.t) ->
              x.name = "StateAssignElimination(ignore-conditions)")
            (Transforms.Registry.as_shipped ())
        in
        (* an interstate edit changes the interval facts, so every state's
           context differs *)
        Alcotest.(check int) "an interstate edit re-checks every state" states
          (misses_of sae (List.hd (sae.Transforms.Xform.find g))));
    Alcotest.test_case "certify gives the same verdicts through one memo as through fresh ones"
      `Quick (fun () ->
        (* every CLOUDSC site of both transformation sets, certified through
           one memo that accumulates every query, and again with a memo per
           site; an Equivalent certificate must also re-check without one *)
        let g = Workloads.Cloudsc.build () in
        let symbols = symbols_of g in
        let memo = Analysis.Delta.create_memo () in
        let sites =
          List.concat_map
            (fun (x : Transforms.Xform.t) ->
              List.map (fun site -> (x, site)) (x.Transforms.Xform.find g))
            (Transforms.Registry.as_shipped () @ Transforms.Registry.all_correct ())
        in
        let proved = ref 0 in
        List.iter
          (fun ((x : Transforms.Xform.t), site) ->
            let shared = Analysis.Equiv.certify ~memo ~symbols g x site in
            let fresh = Analysis.Equiv.certify ~symbols g x site in
            if shared <> fresh then
              Alcotest.failf "%s @ %s: the shared memo changed the verdict" x.name
                (Transforms.Xform.site_slug site);
            match shared with
            | Some (Analysis.Equiv.Equivalent cert) ->
                incr proved;
                if not (Analysis.Certificate.check cert) then
                  Alcotest.failf "%s @ %s: the certificate does not re-check" x.name
                    (Transforms.Xform.site_slug site)
            | _ -> ())
          sites;
        Alcotest.(check bool) "some site is proved" true (!proved > 0);
        let hits, misses = deps memo in
        Alcotest.(check bool) "the shared memo serves dependence queries" true (hits > misses));
    Alcotest.test_case "an interstate edit re-checks unchanged states" `Quick (fun () ->
        unchanged_state_gains_finding (shifted ~k:0) (shifted ~k:1));
    Alcotest.test_case "a container change re-checks unchanged states" `Quick (fun () ->
        unchanged_state_gains_finding (padded ~pad:1) (padded ~pad:0);
        (* the state's propagated accesses change too: y's write shrinks
           with its shape, and a stale one would escape it *)
        Alcotest.(check int) "no footprint escape" 0
          (List.length (through_one_memo [ copied ~pad:0; copied ~pad:(-1) ])));
    Alcotest.test_case "an invalid copy is never analyzed" `Quick (fun () ->
        (* MapExpansion(bad-exit) leaves a map entry without its exit *)
        let g = Workloads.Cloudsc.build () in
        let symbols = symbols_of g in
        let x =
          List.find
            (fun (x : Transforms.Xform.t) -> x.name = "MapExpansion(bad-exit)")
            (Transforms.Registry.as_shipped ())
        in
        let site = List.hd (x.Transforms.Xform.find g) in
        let g' =
          match Transforms.Xform.apply_copy x g site with
          | Ok (g', _) -> g'
          | Error msg -> Alcotest.failf "did not apply: %s" msg
        in
        let error =
          match Validate.check g' with
          | e :: _ -> Format.asprintf "%a" Validate.pp_error e
          | [] -> Alcotest.fail "the copy validates"
        in
        let memo = Analysis.Delta.create_memo () in
        let copy = Validate.admit g' in
        let findings, stats = Analysis.Delta.between ~memo ~symbols g copy in
        Alcotest.(check int) "no findings" 0 (List.length findings);
        Alcotest.(check bool) "the baseline's counters" true
          (stats = snd (Analysis.Oracle.analyze_stats ~carried:true ~symbols g));
        Alcotest.(check int) "the baseline's pairs" 43 stats.Analysis.Races.pairs;
        Alcotest.(check (pair int int))
          "only the baseline's states are looked up" (0, List.length (Graph.states g))
          (checks memo);
        match Analysis.Equiv.decide ~memo ~symbols ~delta:findings g copy x site with
        | Analysis.Equiv.Unknown why ->
            let n = String.length error in
            let rec at i =
              i + n <= String.length why && (String.sub why i n = error || at (i + 1))
            in
            if not (at 0) then Alcotest.failf "%S does not name %S" why error
        | v -> Alcotest.failf "expected unknown, got %s" (Analysis.Equiv.verdict_name v));
    Alcotest.test_case "a failure inside the delta escapes" `Quick (fun () ->
        (* a one-shot alarm raises while CLOUDSC's delta is analyzed afresh
           again and again: nothing in the analysis may take the exception
           for a result and let the loop run to its end *)
        let g = Workloads.Cloudsc.build () in
        let symbols = symbols_of g in
        let x = Transforms.Map_tiling.make Transforms.Map_tiling.Correct in
        let copy =
          match Transforms.Xform.apply_copy x g (List.hd (x.Transforms.Xform.find g)) with
          | Ok (g', _) -> Validate.admit g'
          | Error msg -> Alcotest.failf "did not apply: %s" msg
        in
        let prev = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Alarm)) in
        let disarm () =
          ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
          Sys.set_signal Sys.sigalrm prev
        in
        let escaped =
          Fun.protect ~finally:disarm (fun () ->
              ignore
                (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0.05 });
              let stop = Unix.gettimeofday () +. 1. in
              match
                while Unix.gettimeofday () < stop do
                  ignore
                    (Analysis.Delta.between ~memo:(Analysis.Delta.create_memo ()) ~symbols g copy)
                done
              with
              | () -> false
              | exception Alarm -> true)
        in
        Alcotest.(check bool) "the alarm's exception escapes" true escaped);
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
