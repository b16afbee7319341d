(* Transformation semantics: every correct variant must preserve whole-program
   behaviour; every buggy variant must change it (or produce an invalid
   graph) on its target workload. *)

open Sdfg

let run_ok g ~symbols ~inputs =
  match Interp.Exec.run g ~symbols ~inputs with
  | Ok o -> o
  | Error f -> Alcotest.fail ("run failed: " ^ Interp.Exec.fault_to_string f)

let externals_equal g o1 o2 =
  List.for_all
    (fun c ->
      let b1 = (Interp.Value.buffer o1.Interp.Exec.memory c).data in
      let b2 = (Interp.Value.buffer o2.Interp.Exec.memory c).data in
      Array.length b1 = Array.length b2
      && Array.for_all2 (fun a b -> a = b || Float.abs (a -. b) < 1e-9) b1 b2)
    (Graph.external_containers g)

let default_inputs g ~symbols =
  let env = Symbolic.Expr.Env.of_list symbols in
  List.filter_map
    (fun (c, (d : Graph.datadesc)) ->
      if d.transient then None
      else
        let n = List.fold_left (fun v e -> v * max 1 (Symbolic.Expr.eval env e)) 1 d.shape in
        Some (c, Array.init n (fun i -> (0.37 *. float_of_int ((i * 7 mod 23) - 11)) +. 0.25)))
    (Graph.containers g)

(* Apply the transformation at one site and compare whole-program results. *)
type behaviour = Same | Different | Invalid

let behaviour_after g (x : Transforms.Xform.t) site ~symbols =
  let inputs = default_inputs g ~symbols in
  let g' = Graph.copy g in
  match x.apply g' site with
  | exception Transforms.Xform.Cannot_apply _ -> Invalid
  | _ -> (
      match Validate.check g' with
      | _ :: _ -> Invalid
      | [] -> (
          let o1 = run_ok g ~symbols ~inputs in
          match Interp.Exec.run g' ~symbols ~inputs with
          | Error _ -> Different
          | Ok o2 -> if externals_equal g o1 o2 then Same else Different))

let check_all_sites name g (x : Transforms.Xform.t) ~symbols expected =
  Alcotest.test_case name `Quick (fun () ->
      let sites = x.find g in
      Alcotest.(check bool) "has sites" true (sites <> []);
      List.iter
        (fun site ->
          let b = behaviour_after g x site ~symbols in
          if b <> expected then
            Alcotest.fail
              (Format.asprintf "site %a: unexpected behaviour" Transforms.Xform.pp_site site))
        sites)

let check_some_site name g (x : Transforms.Xform.t) ~symbols expected =
  Alcotest.test_case name `Quick (fun () ->
      let sites = x.find g in
      Alcotest.(check bool) "has sites" true (sites <> []);
      Alcotest.(check bool) "some site shows behaviour" true
        (List.exists (fun site -> behaviour_after g x site ~symbols = expected) sites))

let n8 = [ ("N", 8) ]
let n9 = [ ("N", 9) ] (* not a multiple of common tile/vector sizes *)

let tiling_tests =
  [
    check_all_sites "correct tiling preserves matmul chain"
      (Workloads.Chain.build ())
      (Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Correct)
      ~symbols:n8 Same;
    check_all_sites "correct tiling preserves gemm (non-divisible size)"
      (Workloads.Npbench.gemm ())
      (Transforms.Map_tiling.make ~tile_size:4 Transforms.Map_tiling.Correct)
      ~symbols:n9 Same;
    check_some_site "off-by-one tiling corrupts accumulation"
      (Workloads.Chain.build ())
      (Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Off_by_one)
      ~symbols:n8 Different;
    check_all_sites "off-by-one tiling harmless on pure elementwise maps"
      (Workloads.Npbench.scale ())
      (Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Off_by_one)
      ~symbols:n8 Same;
    check_some_site "no-remainder tiling breaks on non-multiple sizes"
      (Workloads.Npbench.scale ())
      (Transforms.Map_tiling.make ~tile_size:4 Transforms.Map_tiling.No_remainder)
      ~symbols:n9 Different;
    check_all_sites "no-remainder tiling fine on multiples"
      (Workloads.Npbench.scale ())
      (Transforms.Map_tiling.make ~tile_size:4 Transforms.Map_tiling.No_remainder)
      ~symbols:n8 Same;
  ]

let vectorization_tests =
  [
    check_all_sites "correct vectorization preserves semantics"
      (Workloads.Npbench.stencil5 ())
      (Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Correct)
      ~symbols:n9 Same;
    check_some_site "assume-divisible fails on odd sizes"
      (Workloads.Npbench.scale ())
      (Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible)
      ~symbols:n9 Different;
    check_all_sites "assume-divisible fine on exact multiples"
      (Workloads.Npbench.scale ())
      (Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible)
      ~symbols:n8 Same;
  ]

let fusion_tests =
  [
    check_all_sites "correct fusion preserves go_fast"
      (Workloads.Npbench.go_fast ())
      (Transforms.Tasklet_fusion.make Transforms.Tasklet_fusion.Correct)
      ~symbols:n8 Same;
    Alcotest.test_case "correct fusion refuses live transient" `Quick (fun () ->
        let x = Transforms.Tasklet_fusion.make Transforms.Tasklet_fusion.Correct in
        Alcotest.(check int) "no sites" 0 (List.length (x.find (Workloads.Npbench.fusion_live ()))));
    check_some_site "buggy fusion drops the live write"
      (Workloads.Npbench.fusion_live ())
      (Transforms.Tasklet_fusion.make Transforms.Tasklet_fusion.Ignore_system_state)
      ~symbols:n8 Different;
    check_all_sites "buggy fusion harmless when transient truly dead"
      (Workloads.Npbench.go_fast ())
      (Transforms.Tasklet_fusion.make Transforms.Tasklet_fusion.Ignore_system_state)
      ~symbols:n8 Same;
  ]

let buffer_tiling_tests =
  [
    check_some_site "wrong-schedule buffer tiling corrupts atax"
      (Workloads.Npbench.atax ())
      (Transforms.Buffer_tiling.make ~tile:4 Transforms.Buffer_tiling.Wrong_scheduling)
      ~symbols:[ ("N", 12) ] Different;
    Alcotest.test_case "correct buffer tiling only matches provably-fitting buffers" `Quick
      (fun () ->
        let x = Transforms.Buffer_tiling.make ~tile:4 Transforms.Buffer_tiling.Correct in
        Alcotest.(check int) "no sites on symbolic size" 0
          (List.length (x.find (Workloads.Npbench.atax ()))));
  ]

let expansion_tests =
  [
    check_all_sites "map expansion preserves semantics"
      (Workloads.Npbench.stencil5 ())
      (Transforms.Map_expansion.make Transforms.Map_expansion.Correct)
      ~symbols:n8 Same;
    check_all_sites "bad-exit expansion generates invalid graphs"
      (Workloads.Npbench.stencil5 ())
      (Transforms.Map_expansion.make Transforms.Map_expansion.Bad_exit_wiring)
      ~symbols:n8 Invalid;
    Alcotest.test_case "expansion then collapse round-trips" `Quick (fun () ->
        let g = Workloads.Npbench.stencil5 () in
        let expand = Transforms.Map_expansion.make Transforms.Map_expansion.Correct in
        let collapse = Transforms.Map_collapse.make () in
        let g' = Graph.copy g in
        (match expand.find g' with
        | s :: _ -> ignore (expand.apply g' s)
        | [] -> Alcotest.fail "no expansion site");
        (match collapse.find g' with
        | s :: _ -> ignore (collapse.apply g' s)
        | [] -> Alcotest.fail "no collapse site after expansion");
        let inputs = default_inputs g ~symbols:n8 in
        let o1 = run_ok g ~symbols:n8 ~inputs in
        let o2 = run_ok g' ~symbols:n8 ~inputs in
        Alcotest.(check bool) "equal" true (externals_equal g o1 o2));
  ]

let collapse_tests =
  [
    check_all_sites "map collapse preserves semantics"
      (Workloads.Npbench.nested_scale ())
      (Transforms.Map_collapse.make ())
      ~symbols:n8 Same;
  ]

let rar_tests =
  [
    check_all_sites "redundant array removal preserves semantics"
      (Workloads.Npbench.copy_chain ())
      (Transforms.Redundant_array_removal.make ())
      ~symbols:n8 Same;
    Alcotest.test_case "container actually removed" `Quick (fun () ->
        let g = Workloads.Npbench.copy_chain () in
        let x = Transforms.Redundant_array_removal.make () in
        let site = List.hd (x.find g) in
        ignore (x.apply g site);
        Alcotest.(check bool) "xc gone" false (Graph.has_container g "xc"));
  ]

let mrf_tests =
  [
    check_all_sites "correct map-reduce fusion preserves l2norm"
      (Workloads.Npbench.l2norm ())
      (Transforms.Map_reduce_fusion.make Transforms.Map_reduce_fusion.Correct)
      ~symbols:n8 Same;
    check_some_site "missing-init fusion leaks stale output"
      (Workloads.Npbench.l2norm ())
      (Transforms.Map_reduce_fusion.make Transforms.Map_reduce_fusion.Missing_init)
      ~symbols:n8 Different;
  ]

let unroll_tests =
  [
    Alcotest.test_case "correct unrolling preserves cloudsc" `Quick (fun () ->
        let g = Workloads.Cloudsc.build () in
        let symbols = Workloads.Cloudsc.default_symbols in
        let x = Transforms.Loop_unrolling.make Transforms.Loop_unrolling.Correct in
        let sites = x.find g in
        Alcotest.(check int) "two constant loops" 2 (List.length sites);
        List.iter
          (fun site ->
            Alcotest.(check bool) "preserved" true (behaviour_after g x site ~symbols = Same))
          sites);
    Alcotest.test_case "sign-error unrolling breaks the negative-step loop only" `Quick
      (fun () ->
        let g = Workloads.Cloudsc.build () in
        let symbols = Workloads.Cloudsc.default_symbols in
        let x = Transforms.Loop_unrolling.make Transforms.Loop_unrolling.Negative_step_sign_error in
        let results = List.map (fun s -> behaviour_after g x s ~symbols) (x.find g) in
        Alcotest.(check int) "one broken" 1 (List.length (List.filter (fun b -> b = Different) results));
        Alcotest.(check int) "one fine" 1 (List.length (List.filter (fun b -> b = Same) results)));
    Alcotest.test_case "buggy trip count is exactly 2 for the paper's loop" `Quick (fun () ->
        (* i = 4 down to 1, step -1: 4 iterations, buggy formula gives 2 *)
        let g = Workloads.Cloudsc.build () in
        let x = Transforms.Loop_unrolling.make Transforms.Loop_unrolling.Negative_step_sign_error in
        let site =
          List.find
            (fun (s : Transforms.Xform.site) ->
              let l =
                List.find
                  (fun (l : Transforms.Xform.loop) -> [ l.guard; l.body ] = s.states)
                  (Transforms.Xform.find_loops g)
              in
              l.var = "lev")
            (x.find g)
        in
        let g' = Graph.copy g in
        ignore (x.apply g' site);
        let unrolled =
          List.filter
            (fun (_, st) ->
              let l = State.label st in
              String.length l >= 15 && String.sub l 0 15 = "sediment_unroll")
            (Graph.states g')
        in
        Alcotest.(check int) "two copies" 2 (List.length unrolled));
  ]

let sae_tests =
  [
    Alcotest.test_case "buggy SAE matches loop bookkeeping, correct refuses" `Quick (fun () ->
        let g = Workloads.Npbench.jacobi_1d () in
        let buggy = Transforms.State_assign_elimination.make Transforms.State_assign_elimination.Ignore_conditions in
        let correct = Transforms.State_assign_elimination.make Transforms.State_assign_elimination.Correct in
        Alcotest.(check bool) "buggy finds sites" true (buggy.find g <> []);
        Alcotest.(check int) "correct finds none" 0 (List.length (correct.find g)));
    Alcotest.test_case "removing the loop increment hangs the program" `Quick (fun () ->
        let g = Workloads.Npbench.jacobi_1d () in
        let buggy = Transforms.State_assign_elimination.make Transforms.State_assign_elimination.Ignore_conditions in
        let results =
          List.map
            (fun site ->
              let g' = Graph.copy g in
              ignore (buggy.apply g' site);
              Interp.Exec.run
                ~config:{ Interp.Exec.default_config with step_limit = 50_000 }
                g' ~symbols:[ ("N", 6); ("T", 2) ]
                ~inputs:(default_inputs g ~symbols:[ ("N", 6) ]))
            (buggy.find g)
        in
        Alcotest.(check bool) "some run hangs or errors" true
          (List.exists (function Error _ -> true | Ok _ -> false) results));
  ]

let sap_tests =
  [
    check_some_site "clobbering alias promotion changes alias_chain"
      (Workloads.Npbench.alias_chain ())
      (Transforms.Symbol_alias_promotion.make Transforms.Symbol_alias_promotion.Clobber_redefinition)
      ~symbols:n8 Different;
    Alcotest.test_case "correct variant refuses the clobbered alias" `Quick (fun () ->
        let g = Workloads.Npbench.alias_chain () in
        let x = Transforms.Symbol_alias_promotion.make Transforms.Symbol_alias_promotion.Correct in
        Alcotest.(check int) "no sites" 0 (List.length (x.find g)));
  ]

let gpu_tests =
  [
    Alcotest.test_case "correct extraction preserves cloudsc" `Quick (fun () ->
        let g = Workloads.Cloudsc.build () in
        let symbols = Workloads.Cloudsc.default_symbols in
        let x = Transforms.Gpu_kernel_extraction.make Transforms.Gpu_kernel_extraction.Correct in
        let sites = x.find g in
        Alcotest.(check bool) "many sites" true (List.length sites >= 10);
        List.iter
          (fun site ->
            match behaviour_after g x site ~symbols with
            | Same -> ()
            | _ -> Alcotest.fail (Format.asprintf "site %a broke" Transforms.Xform.pp_site site))
          sites);
    Alcotest.test_case "full-copy-back corrupts partial writers" `Quick (fun () ->
        let g = Workloads.Cloudsc.build () in
        let symbols = Workloads.Cloudsc.default_symbols in
        let x =
          Transforms.Gpu_kernel_extraction.make Transforms.Gpu_kernel_extraction.Full_copy_back
        in
        let results = List.map (fun s -> behaviour_after g x s ~symbols) (x.find g) in
        let broken = List.length (List.filter (fun b -> b = Different) results) in
        Alcotest.(check bool) "majority broken" true (broken * 2 > List.length results));
    Alcotest.test_case "extraction schedules the map on the device" `Quick (fun () ->
        let g = Workloads.Npbench.stencil5 () in
        (* make the map parallel so it is a kernel candidate *)
        let sid = Graph.start_state g in
        let st = Graph.state g sid in
        List.iter
          (fun (id, n) ->
            match n with
            | Node.Map_entry i -> State.replace_node st id (Node.Map_entry { i with schedule = Node.Parallel })
            | _ -> ())
          (State.nodes st);
        let x = Transforms.Gpu_kernel_extraction.make Transforms.Gpu_kernel_extraction.Correct in
        let site = List.hd (x.find g) in
        ignore (x.apply g site);
        let has_gpu_map =
          List.exists
            (fun (_, n) ->
              match n with
              | Node.Map_entry { schedule = Node.Gpu_device; _ } -> true
              | _ -> false)
            (State.nodes st)
        in
        Alcotest.(check bool) "gpu map" true has_gpu_map;
        Alcotest.(check int) "still valid" 0 (List.length (Validate.check g)));
  ]

let misc_tests =
  [
    Alcotest.test_case "Cannot_apply on stale sites" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let x = Transforms.Map_tiling.make Transforms.Map_tiling.Correct in
        let bad = Transforms.Xform.dataflow_site ~state:0 ~nodes:[ 999 ] ~descr:"stale" in
        match x.apply g bad with
        | exception Transforms.Xform.Cannot_apply _ -> ()
        | _ -> Alcotest.fail "expected Cannot_apply");
    Alcotest.test_case "apply_copy: a failed application is an Error, others escape" `Quick
      (fun () ->
        let g = Workloads.Npbench.scale () in
        let x = Transforms.Map_tiling.make Transforms.Map_tiling.Correct in
        let site = List.hd (x.find g) in
        let before = Serialize.to_string g in
        let unchanged what =
          Alcotest.(check string) (what ^ ": input unchanged") before (Serialize.to_string g)
        in
        (* each raises after transforming the copy *)
        let raising e = { x with apply = (fun g' site -> ignore (x.apply g' site); raise e) } in
        List.iter
          (fun (e, msg) ->
            let what = Printexc.to_string e in
            (match Transforms.Xform.apply_copy (raising e) g site with
            | Error m -> Alcotest.(check string) what msg m
            | Ok _ -> Alcotest.failf "%s: expected Error" what);
            unchanged what)
          [
            (Transforms.Xform.Cannot_apply "stale", "stale");
            (Failure "failed", "failed");
            (Invalid_argument "invalid", "invalid");
            (Not_found, "transformation failed with Not_found");
          ];
        (match Transforms.Xform.apply_copy (raising Exit) g site with
        | exception Exit -> ()
        | _ -> Alcotest.fail "Exit must escape");
        unchanged "Exit";
        (match Transforms.Xform.apply_copy x g site with
        | Ok (g', _) ->
            Alcotest.(check bool) "the copy is transformed" true (Serialize.to_string g' <> before)
        | Error m -> Alcotest.fail m);
        unchanged "applied");
    Alcotest.test_case "registry sets are consistent" `Quick (fun () ->
        let shipped = Transforms.Registry.as_shipped () in
        let correct = Transforms.Registry.all_correct () in
        Alcotest.(check int) "same count" (List.length shipped) (List.length correct);
        Alcotest.(check bool) "lookup works" true
          (Transforms.Registry.by_name shipped "MapTiling" <> None));
  ]


(* ---------------- appended: MapFusion / LoopPeeling / StateFusion ------- *)

let fusion_chain () =
  (* producer/consumer maps with identical ranges over a transient *)
  Frontend.Lang.compile {|
    program fusable
    symbol N
    input  f64 x[N]
    temp   f64 t[N]
    output f64 y[N]
    map i = 0 to N-1 { t[i] = x[i] * 2.0 }
    map i = 0 to N-1 { y[i] = t[i] + 1.0 }
  |}

let fusion_stencil () =
  (* the consumer reads at a forward offset: fusion is illegal *)
  Frontend.Lang.compile {|
    program stencilish
    symbol N
    input  f64 x[N]
    temp   f64 t[N]
    output f64 y[N]
    map i = 1 to N-2 { t[i] = x[i] * 2.0 }
    map i = 1 to N-2 { y[i] = t[i+1] + 1.0 }
  |}

let map_fusion_tests =
  [
    check_all_sites "correct map fusion preserves semantics" (fusion_chain ())
      (Transforms.Map_fusion.make Transforms.Map_fusion.Correct)
      ~symbols:n8 Same;
    Alcotest.test_case "correct fusion refuses offset consumers" `Quick (fun () ->
        let x = Transforms.Map_fusion.make Transforms.Map_fusion.Correct in
        Alcotest.(check int) "no sites" 0 (List.length (x.find (fusion_stencil ()))));
    check_some_site "offset-ignoring fusion breaks the stencil consumer" (fusion_stencil ())
      (Transforms.Map_fusion.make Transforms.Map_fusion.Ignore_offsets)
      ~symbols:n8 Different;
    Alcotest.test_case "fusion leaves one map scope" `Quick (fun () ->
        let g = fusion_chain () in
        let x = Transforms.Map_fusion.make Transforms.Map_fusion.Correct in
        let site = List.hd (x.find g) in
        ignore (x.apply g site);
        let st = Graph.state g (Graph.start_state g) in
        Alcotest.(check int) "one entry" 1 (List.length (Transforms.Xform.map_entries st)));
  ]

let loop_peeling_tests =
  [
    Alcotest.test_case "correct peeling preserves constant loops" `Quick (fun () ->
        let g = Workloads.Cloudsc.build () in
        let symbols = Workloads.Cloudsc.default_symbols in
        let x = Transforms.Loop_peeling.make Transforms.Loop_peeling.Correct in
        let sites = x.find g in
        Alcotest.(check bool) "has sites" true (sites <> []);
        List.iter
          (fun site ->
            Alcotest.(check bool) "preserved" true (behaviour_after g x site ~symbols = Same))
          sites);
    Alcotest.test_case "correct peeling refuses possibly-empty loops" `Quick (fun () ->
        let g = Workloads.Npbench.jacobi_1d () in
        let x = Transforms.Loop_peeling.make Transforms.Loop_peeling.Correct in
        Alcotest.(check int) "no sites" 0 (List.length (x.find g)));
    Alcotest.test_case "assume-nonempty peeling caught on empty trips" `Quick (fun () ->
        let g = Workloads.Npbench.jacobi_1d () in
        let x = Transforms.Loop_peeling.make Transforms.Loop_peeling.Assume_nonempty in
        let site = List.hd (x.find g) in
        let config =
          {
            Fuzzyflow.Difftest.default_config with
            trials = 40;
            max_size = 8;
            concretization = [ ("N", 8); ("T", 3) ];
          }
        in
        let r = Fuzzyflow.Difftest.test_instance ~config g x site in
        match r.verdict with
        | Fuzzyflow.Difftest.Fail { klass = Fuzzyflow.Difftest.Input_dependent; _ } -> ()
        | Fuzzyflow.Difftest.Fail _ -> () (* acceptable: all sampled trips empty *)
        | Fuzzyflow.Difftest.Pass -> Alcotest.fail "empty-trip bug not caught");
    Alcotest.test_case "peeled loop still computes the same values" `Quick (fun () ->
        let g = Workloads.Cloudsc.build () in
        let symbols = Workloads.Cloudsc.default_symbols in
        let x = Transforms.Loop_peeling.make Transforms.Loop_peeling.Correct in
        let site = List.hd (x.find g) in
        Alcotest.(check bool) "same" true (behaviour_after g x site ~symbols = Same));
  ]

let state_fusion_workload () =
  (* two-stage producer in the first state, consumer in the second: fusing
     without dependency edges lets the consumer run before the producer *)
  let g = Graph.create "sf" in
  Graph.add_symbol g "N";
  let n = Symbolic.Expr.sym "N" in
  Graph.add_array g "x" Dtype.F64 [ n ];
  Graph.add_array g "y" Dtype.F64 [ n ];
  List.iter (fun c -> Graph.add_array g ~transient:true c Dtype.F64 [ n ]) [ "t1"; "t" ];
  let s1 = Graph.add_state g "produce" in
  let st1 = Graph.state g s1 in
  let m1 =
    Builder.Build.mapped_tasklet g st1 ~label:"stage1"
      ~map:[ ("i", "0:N-1") ]
      ~inputs:[ ("v", Builder.Build.mem "x" "i") ]
      ~code:"o = v * 2.0"
      ~outputs:[ ("o", Builder.Build.mem "t1" "i") ]
      ()
  in
  ignore
    (Builder.Build.mapped_tasklet g st1 ~label:"stage2"
       ~map:[ ("i", "0:N-1") ]
       ~inputs:[ ("v", Builder.Build.mem "t1" "i") ]
       ~code:"o = v + 1.0"
       ~outputs:[ ("o", Builder.Build.mem "t" "i") ]
       ~input_nodes:[ ("t1", List.assoc "t1" m1.out_access) ]
       ());
  let s2 = Graph.add_state_after g s1 "consume" in
  let st2 = Graph.state g s2 in
  ignore
    (Builder.Build.mapped_tasklet g st2 ~label:"consume"
       ~map:[ ("i", "0:N-1") ]
       ~inputs:[ ("v", Builder.Build.mem "t" "i") ]
       ~code:"o = v * 3.0"
       ~outputs:[ ("o", Builder.Build.mem "y" "i") ]
       ());
  g

let fusion_legality_tests =
  [
    Alcotest.test_case "tasklet fusion refuses cycle-creating sites (durbin)" `Quick (fun () ->
        (* durbin chains scalars with side paths; fusing across them would
           create a dataflow cycle — found by the NPBench campaign itself *)
        let g = List.assoc "durbin" (Workloads.Npb_frontend.all ()) in
        let x = Transforms.Tasklet_fusion.make Transforms.Tasklet_fusion.Ignore_system_state in
        List.iter
          (fun site ->
            let g' = Graph.copy g in
            ignore (x.apply g' site);
            Alcotest.(check int) "valid after fusion" 0 (List.length (Validate.check g')))
          (x.find g));
    Alcotest.test_case "map fusion refuses intervening-overwrite sites" `Quick (fun () ->
        (* the consumer's other input is rewritten between producer and
           consumer: fusing would create a cycle *)
        let g = Frontend.Lang.compile {|
          program interleaved
          symbol N
          input  f64 x[N]
          temp   f64 t[N]
          inout  f64 w[N]
          output f64 y[N]
          map i = 0 to N-1 { t[i] = x[i] * w[i] }
          map i = 0 to N-1 { w[i] = x[i] + 1.0 }
          map i = 0 to N-1 { y[i] = t[i] + w[i] }
        |} in
        let x = Transforms.Map_fusion.make Transforms.Map_fusion.Correct in
        List.iter
          (fun site ->
            let g' = Graph.copy g in
            ignore (x.apply g' site);
            Alcotest.(check int) "valid after fusion" 0 (List.length (Validate.check g')))
          (x.find g));
  ]

let state_fusion_tests =
  [
    check_all_sites "correct state fusion preserves semantics" (state_fusion_workload ())
      (Transforms.State_fusion.make Transforms.State_fusion.Correct)
      ~symbols:n8 Same;
    check_some_site "missing-deps state fusion reorders the consumer" (state_fusion_workload ())
      (Transforms.State_fusion.make Transforms.State_fusion.Missing_dependencies)
      ~symbols:n8 Different;
    Alcotest.test_case "fused graph has one fewer state" `Quick (fun () ->
        let g = state_fusion_workload () in
        let x = Transforms.State_fusion.make Transforms.State_fusion.Correct in
        let before = List.length (Graph.state_ids g) in
        let site = List.hd (x.find g) in
        ignore (x.apply g site);
        Alcotest.(check int) "one fewer" (before - 1) (List.length (Graph.state_ids g)));
    Alcotest.test_case "conditional edges are not fusable" `Quick (fun () ->
        let g = Workloads.Npbench.jacobi_1d () in
        let x = Transforms.State_fusion.make Transforms.State_fusion.Correct in
        (* the loop's guard edges carry conditions/assignments *)
        List.iter
          (fun (s : Transforms.Xform.site) ->
            let l = List.hd (Transforms.Xform.find_loops g) in
            Alcotest.(check bool) "not the guard pair" false
              (s.states = [ l.guard; l.body ] || s.states = [ l.body; l.guard ]))
          (x.find g));
  ]

let () =
  Alcotest.run "transforms"
    [
      ("map_tiling", tiling_tests);
      ("vectorization", vectorization_tests);
      ("tasklet_fusion", fusion_tests);
      ("buffer_tiling", buffer_tiling_tests);
      ("map_expansion", expansion_tests);
      ("map_collapse", collapse_tests);
      ("redundant_array_removal", rar_tests);
      ("map_reduce_fusion", mrf_tests);
      ("loop_unrolling", unroll_tests);
      ("state_assign_elimination", sae_tests);
      ("symbol_alias_promotion", sap_tests);
      ("gpu_kernel_extraction", gpu_tests);
      ("map_fusion", map_fusion_tests);
      ("loop_peeling", loop_peeling_tests);
      ("fusion_legality", fusion_legality_tests);
      ("state_fusion", state_fusion_tests);
      ("misc", misc_tests);
    ]
