(* Serialization round-trips: structure and semantics preserved for every
   workload, ids stable, malformed input rejected. *)

open Sdfg

let structurally_equal g1 g2 =
  Graph.name g1 = Graph.name g2
  && Graph.symbols g1 = Graph.symbols g2
  && Graph.containers g1 = Graph.containers g2
  && Graph.start_state g1 = Graph.start_state g2
  && List.map fst (Graph.states g1) = List.map fst (Graph.states g2)
  && List.for_all2
       (fun (_, s1) (_, s2) ->
         State.nodes s1 = State.nodes s2
         && List.map (fun (e : State.edge) -> (e.src, e.src_conn, e.dst, e.dst_conn, e.memlet, e.dst_memlet))
              (State.edges s1)
            = List.map (fun (e : State.edge) -> (e.src, e.src_conn, e.dst, e.dst_conn, e.memlet, e.dst_memlet))
                (State.edges s2))
       (Graph.states g1) (Graph.states g2)
  && List.map (fun (e : Graph.istate_edge) -> (e.src, e.dst, e.cond, e.assigns)) (Graph.istate_edges g1)
     = List.map (fun (e : Graph.istate_edge) -> (e.src, e.dst, e.cond, e.assigns)) (Graph.istate_edges g2)

let all_workloads () =
  Workloads.Npbench.all ()
  @ [
      ("bert", Workloads.Bert.build ());
      ("cloudsc", Workloads.Cloudsc.build ());
      ("fig4", Workloads.Fig4.build ());
    ]

let roundtrip_tests =
  List.map
    (fun (name, g) ->
      Alcotest.test_case name `Quick (fun () ->
          let g' = Serialize.of_string (Serialize.to_string g) in
          Alcotest.(check bool) "structure preserved" true (structurally_equal g g');
          Alcotest.(check int) "still valid" (List.length (Validate.check g))
            (List.length (Validate.check g'))))
    (all_workloads ())

let semantic_tests =
  [
    Alcotest.test_case "loaded graph computes identically" `Quick (fun () ->
        let g = Workloads.Chain.build () in
        let g' = Serialize.of_string (Serialize.to_string g) in
        let n = 4 in
        let inputs =
          List.map
            (fun c -> (c, Array.init (n * n) (fun i -> Float.sin (float_of_int i))))
            [ "A"; "B"; "C"; "D"; "R" ]
        in
        match
          (Interp.Exec.run g ~symbols:[ ("N", n) ] ~inputs,
           Interp.Exec.run g' ~symbols:[ ("N", n) ] ~inputs)
        with
        | Ok o1, Ok o2 ->
            Alcotest.(check (array (float 1e-12)))
              "R equal"
              (Interp.Value.buffer o1.memory "R").data
              (Interp.Value.buffer o2.memory "R").data
        | _ -> Alcotest.fail "runs failed");
    Alcotest.test_case "sites survive a round-trip" `Quick (fun () ->
        let g, sid, mm2 = Workloads.Chain.build_with_site () in
        let g' = Serialize.of_string (Serialize.to_string g) in
        let x = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Correct in
        let site = Transforms.Xform.dataflow_site ~state:sid ~nodes:[ mm2 ] ~descr:"t" in
        (* applying at the recorded site works on the reloaded graph *)
        ignore (x.apply g' site);
        Alcotest.(check int) "valid after apply" 0 (List.length (Validate.check g')));
    Alcotest.test_case "save/load files" `Quick (fun () ->
        let g = Workloads.Npbench.softmax () in
        let path = Filename.temp_file "sdfg" ".sexp" in
        Serialize.save path g;
        let g' = Serialize.load path in
        Sys.remove path;
        Alcotest.(check bool) "equal" true (structurally_equal g g'));
    Alcotest.test_case "quoted atoms round-trip" `Quick (fun () ->
        let g = Graph.create "weird name (with parens)" in
        Graph.add_array g "A" Dtype.F64 [ Symbolic.Expr.of_string "N * (N + 1)" ];
        Graph.add_symbol g "N";
        let sid = Graph.add_state g "state with spaces" in
        ignore sid;
        let g' = Serialize.of_string (Serialize.to_string g) in
        Alcotest.(check string) "name" (Graph.name g) (Graph.name g');
        Alcotest.(check bool) "container" true (Graph.has_container g' "A"));
    Alcotest.test_case "malformed input rejected" `Quick (fun () ->
        List.iter
          (fun src ->
            match Serialize.of_string src with
            | exception Serialize.Parse_error _ -> ()
            | _ -> Alcotest.fail ("accepted: " ^ src))
          [ ""; "("; "(sdfg)"; "(sdfg x (symbols) (containers) (states) (iedges) (start z))";
            "(notasdfg a (symbols) (containers) (states) (iedges) (start 0))" ]);
  ]

(* Testcase.save writes a bundle Testcase.load can reconstruct exactly; the
   reloaded case still reproduces the failure via replay. *)
let testcase_tests =
  [
    Alcotest.test_case "testcase save -> load -> replay round-trip" `Quick (fun () ->
        let open Fuzzyflow in
        let config =
          { Difftest.default_config with trials = 5; max_size = 8; concretization = [ ("N", 8) ] }
        in
        let g = Workloads.Npbench.scale () in
        let x = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible in
        let site = List.hd (x.find g) in
        let r = Difftest.test_instance ~config g x site in
        let tc =
          match Testcase.of_report ~config ~original:g r with
          | Some tc -> tc
          | None -> Alcotest.fail "expected a failing test case"
        in
        let dir = Filename.temp_file "fftc" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let written = Testcase.save dir tc in
        let dat = List.find (fun p -> Filename.check_suffix p ".case.dat") written in
        let tc' =
          match Testcase.load dat with
          | Ok tc' -> tc'
          | Error { Testcase.reason; _ } -> Alcotest.fail ("load failed: " ^ reason)
        in
        Alcotest.(check string) "name" tc.name tc'.name;
        Alcotest.(check bool) "symbols" true (tc.symbols = tc'.symbols);
        Alcotest.(check bool) "inputs bit-exact" true (tc.inputs = tc'.inputs);
        Alcotest.(check bool) "failure" true (tc.failure = tc'.failure);
        Alcotest.(check int) "step limit" tc.step_limit tc'.step_limit;
        Alcotest.(check bool) "cutout interface" true
          (tc.cutout.Cutout.input_config = tc'.cutout.Cutout.input_config
          && tc.cutout.Cutout.system_state = tc'.cutout.Cutout.system_state);
        Alcotest.(check bool) "cutout graph structure" true
          (structurally_equal tc.cutout.Cutout.program tc'.cutout.Cutout.program);
        (* the reloaded cutout still runs identically under the stored inputs *)
        (match (Testcase.replay tc, Testcase.replay tc') with
        | Ok o1, Ok o2 ->
            Alcotest.(check bool) "replay memory equal" true (o1.Interp.Exec.memory = o2.Interp.Exec.memory)
        | Error f1, Error f2 -> Alcotest.(check bool) "same fault" true (f1 = f2)
        | _ -> Alcotest.fail "replay diverged after reload");
        List.iter Sys.remove written;
        Unix.rmdir dir);
    Alcotest.test_case "load never raises on bit-flipped or truncated bundles" `Quick (fun () ->
        let open Fuzzyflow in
        let config =
          { Difftest.default_config with trials = 5; max_size = 8; concretization = [ ("N", 8) ] }
        in
        let g = Workloads.Npbench.scale () in
        let x = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible in
        let site = List.hd (x.find g) in
        let r = Difftest.test_instance ~config g x site in
        let tc =
          match Testcase.of_report ~config ~original:g r with
          | Some tc -> tc
          | None -> Alcotest.fail "expected a failing test case"
        in
        let dir = Filename.temp_file "fftcfuzz" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let written = Testcase.save dir tc in
        let dat = List.find (fun p -> Filename.check_suffix p ".case.dat") written in
        let sdfg = List.find (fun p -> Filename.check_suffix p ".cutout.sdfg" ) written in
        let read path =
          let ic = open_in_bin path in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          s
        in
        let write path s =
          let oc = open_out_bin path in
          output_string oc s;
          close_out oc
        in
        let try_load () =
          match Testcase.load dat with
          | Ok _ | Error _ -> ()
          | exception e -> Alcotest.fail ("load raised: " ^ Printexc.to_string e)
        in
        List.iter
          (fun victim ->
            let pristine = read victim in
            let n = String.length pristine in
            (* deterministic walk: flip one bit at ~40 positions spread over
               the file, catching headers, numbers, separators, payload *)
            for k = 0 to 39 do
              let pos = k * (max 1 (n / 40)) mod n in
              let bit = k mod 8 in
              let damaged = Bytes.of_string pristine in
              Bytes.set damaged pos (Char.chr (Char.code pristine.[pos] lxor (1 lsl bit)));
              write victim (Bytes.to_string damaged);
              try_load ()
            done;
            (* truncations, including mid-line *)
            List.iter
              (fun keep -> write victim (String.sub pristine 0 (keep * n / 7)); try_load ())
              [ 0; 1; 2; 3; 4; 5; 6 ];
            write victim pristine)
          [ dat; sdfg ];
        (* missing graph file is a typed error too *)
        Sys.remove sdfg;
        (match Testcase.load dat with
        | Error { Testcase.reason; _ } ->
            Alcotest.(check bool) "reason non-empty" true (reason <> "")
        | Ok _ -> Alcotest.fail "loaded without its cutout graph"
        | exception e -> Alcotest.fail ("load raised: " ^ Printexc.to_string e));
        List.iter (fun p -> if Sys.file_exists p then Sys.remove p) written;
        Unix.rmdir dir);
    Alcotest.test_case "a bundle without a step-limit line loads at the interpreter default"
      `Quick (fun () ->
        let open Fuzzyflow in
        let config =
          { Difftest.default_config with trials = 5; max_size = 8; concretization = [ ("N", 8) ] }
        in
        let g = Workloads.Npbench.scale () in
        let x = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible in
        let site = List.hd (x.find g) in
        let tc =
          match Testcase.of_report ~config ~original:g (Difftest.test_instance ~config g x site) with
          | Some tc -> tc
          | None -> Alcotest.fail "expected a failing test case"
        in
        Alcotest.(check int) "recorded from the config" config.Difftest.step_limit tc.step_limit;
        let dir = Filename.temp_file "fftcold" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let written = Testcase.save dir tc in
        let dat = List.find (fun p -> Filename.check_suffix p ".case.dat") written in
        (* rewrite the bundle the way an earlier version wrote it *)
        let lines = In_channel.with_open_bin dat In_channel.input_all |> String.split_on_char '\n' in
        let legacy =
          List.filter (fun l -> not (String.length l >= 10 && String.sub l 0 10 = "steplimit ")) lines
        in
        Alcotest.(check int) "one step-limit line dropped" (List.length lines - 1) (List.length legacy);
        Out_channel.with_open_bin dat (fun oc -> output_string oc (String.concat "\n" legacy));
        (match Testcase.load dat with
        | Ok tc' ->
            Alcotest.(check int) "interpreter default"
              Interp.Exec.default_config.Interp.Exec.step_limit tc'.step_limit;
            Alcotest.(check bool) "failure" true (tc.failure = tc'.failure)
        | Error { Testcase.reason; _ } -> Alcotest.fail ("load failed: " ^ reason));
        List.iter Sys.remove written;
        Unix.rmdir dir);
  ]

let () =
  Alcotest.run "serialize"
    [
      ("roundtrip", roundtrip_tests);
      ("semantics", semantic_tests);
      ("testcase", testcase_tests);
    ]
