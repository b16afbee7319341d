(* Divergence localization: the earliest corrupted container is identified. *)

open Fuzzyflow

let config =
  { Difftest.default_config with trials = 10; max_size = 10; concretization = [ ("N", 8) ] }

(* A three-map chain x -> t1 -> t2 -> y, cut out whole, and a copy whose t2
   producer runs [code] instead. *)
let chain3_corrupted code =
  let g = Frontend.Lang.compile {|
    program chain3
    symbol N
    input  f64 x[N]
    temp   f64 t1[N]
    temp   f64 t2[N]
    output f64 y[N]
    map i = 0 to N-1 { t1[i] = x[i] + 1.0 }
    map i = 0 to N-1 { t2[i] = t1[i] * 2.0 }
    map i = 0 to N-1 { y[i] = t2[i] - 3.0 }
  |} in
  let sid = Sdfg.Graph.start_state g in
  let st = Sdfg.Graph.state g sid in
  let cut =
    Cutout.extract_dataflow ~options:{ Cutout.symbols = [ ("N", 4) ] } g ~state:sid
      ~nodes:(Sdfg.State.node_ids st)
  in
  let transformed = Sdfg.Graph.copy cut.program in
  let st' = Sdfg.Graph.state transformed sid in
  (* the producer of t2: the tasklet whose out-edge writes t2 *)
  List.iter
    (fun (id, n) ->
      match n with
      | Sdfg.Node.Tasklet { label; _ } ->
          let writes_t2 =
            List.exists
              (fun (e : Sdfg.State.edge) ->
                match e.memlet with Some m -> m.data = "t2" | None -> false)
              (Sdfg.State.out_edges st' id)
          in
          if writes_t2 then
            Sdfg.State.replace_node st' id
              (Sdfg.Node.Tasklet { label; code = Sdfg.Tcode.of_string code })
      | _ -> ())
    (Sdfg.State.nodes st');
  (cut, transformed)

let chain3_inputs = [ ("x", [| 1.; 2.; 3.; 4. |]) ]

let locate_chain3 (cut : Cutout.t) transformed =
  Localize.locate ~cutout:cut ~transformed ~symbols:[ ("N", 4) ] ~inputs:chain3_inputs ()

let localize_tests =
  [
    Alcotest.test_case "off-by-one tiling diverges first at V" `Quick (fun () ->
        let g, sid, mm2 = Workloads.Chain.build_with_site () in
        let x = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Off_by_one in
        let site = Transforms.Xform.dataflow_site ~state:sid ~nodes:[ mm2 ] ~descr:"tile" in
        let r = Difftest.test_instance ~config g x site in
        (match Localize.of_report ~config ~original:g ~xform:x r with
        | Some (d :: _) -> Alcotest.(check string) "first diverging" "V" d.container
        | Some [] -> Alcotest.fail "expected divergences"
        | None -> Alcotest.fail "expected localization"));
    Alcotest.test_case "agreement yields no divergence" `Quick (fun () ->
        let g, sid, mm2 = Workloads.Chain.build_with_site () in
        let x = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Correct in
        let site = Transforms.Xform.dataflow_site ~state:sid ~nodes:[ mm2 ] ~descr:"tile" in
        let cut =
          Cutout.extract_dataflow ~options:{ Cutout.symbols = [ ("N", 8) ] } g ~state:sid
            ~nodes:[ mm2 ]
        in
        let transformed = Sdfg.Graph.copy cut.program in
        ignore (x.apply transformed site);
        let n = 4 in
        let inputs =
          [
            ("U", Array.init (n * n) float_of_int);
            ("C", Array.init (n * n) (fun i -> float_of_int (i mod 3)));
          ]
        in
        let ds = Localize.locate ~cutout:cut ~transformed ~symbols:[ ("N", n) ] ~inputs () in
        Alcotest.(check int) "none" 0 (List.length ds));
    Alcotest.test_case "earliest writer ranks before later ones" `Quick (fun () ->
        (* break the middle of a chain; the first divergence must be the
           middle temp, not the final output *)
        let g = Frontend.Lang.compile {|
          program chain3
          symbol N
          input  f64 x[N]
          temp   f64 t1[N]
          temp   f64 t2[N]
          output f64 y[N]
          map i = 0 to N-1 { t1[i] = x[i] + 1.0 }
          map i = 0 to N-1 { t2[i] = t1[i] * 2.0 }
          map i = 0 to N-1 { y[i] = t2[i] - 3.0 }
        |} in
        let sid = Sdfg.Graph.start_state g in
        let st = Sdfg.Graph.state g sid in
        (* cutout of everything *)
        let cut =
          Cutout.extract_dataflow ~options:{ Cutout.symbols = [ ("N", 4) ] } g ~state:sid
            ~nodes:(Sdfg.State.node_ids st)
        in
        (* transformed copy with the t2 tasklet corrupted *)
        let transformed = Sdfg.Graph.copy cut.program in
        let st' = Sdfg.Graph.state transformed sid in
        (* corrupt the producer of t2: the tasklet whose out-edge writes t2 *)
        List.iter
          (fun (id, n) ->
            match n with
            | Sdfg.Node.Tasklet { label; _ } ->
                let writes_t2 =
                  List.exists
                    (fun (e : Sdfg.State.edge) ->
                      match e.memlet with Some m -> m.data = "t2" | None -> false)
                    (Sdfg.State.out_edges st' id)
                in
                if writes_t2 then
                  Sdfg.State.replace_node st' id
                    (Sdfg.Node.Tasklet { label; code = Sdfg.Tcode.of_string "__out = __in1 * 2.5" })
            | _ -> ())
          (Sdfg.State.nodes st');
        let ds =
          Localize.locate ~cutout:cut ~transformed ~symbols:[ ("N", 4) ]
            ~inputs:[ ("x", [| 1.; 2.; 3.; 4. |]) ]
            ()
        in
        match ds with
        | d1 :: d2 :: _ ->
            Alcotest.(check string) "t2 first" "t2" d1.container;
            Alcotest.(check string) "y after" "y" d2.container
        | _ -> Alcotest.fail "expected two divergences");
    Alcotest.test_case "an infinity diverges from a finite value" `Quick (fun () ->
        (* the difftest comparison rejects inf against a finite value; the
           localizer must agree on every container it ranks *)
        let cut, transformed = chain3_corrupted "__out = __in1 / 0.0" in
        let run g = Interp.Exec.run g ~symbols:[ ("N", 4) ] ~inputs:chain3_inputs in
        (match
           Difftest.compare_outcomes ~threshold:1e-5 ~system_state:cut.system_state
             (run cut.program) (run transformed)
         with
        | Some kind ->
            Alcotest.(check string)
              "difftest" "system state differs in y[0]: 1 vs inf"
              (Format.asprintf "%a" Difftest.pp_failure kind)
        | None -> Alcotest.fail "difftest saw no divergence");
        match locate_chain3 cut transformed with
        | d1 :: d2 :: _ ->
            Alcotest.(check string) "t2 first" "t2" d1.container;
            Alcotest.(check string) "y after" "y" d2.container
        | _ -> Alcotest.fail "expected two divergences");
  ]

let () = Alcotest.run "localize" [ ("localize", localize_tests) ]
