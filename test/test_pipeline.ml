(* Guarded optimization: buggy instances are rejected, the optimized program
   stays semantically identical, and passing instances actually land. *)

open Fuzzyflow

let config =
  { Difftest.default_config with trials = 8; max_size = 8; concretization = [ ("N", 8) ] }

let externals_equal g o1 o2 =
  List.for_all
    (fun c ->
      let b1 = (Interp.Value.buffer o1.Interp.Exec.memory c).data in
      let b2 = (Interp.Value.buffer o2.Interp.Exec.memory c).data in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) b1 b2)
    (Sdfg.Graph.external_containers g)

let run_ok g ~symbols ~inputs =
  match Interp.Exec.run g ~symbols ~inputs with
  | Ok o -> o
  | Error f -> Alcotest.fail (Interp.Exec.fault_to_string f)

let pipeline_tests =
  [
    Alcotest.test_case "correct tiling applied, buggy vectorization rejected" `Quick (fun () ->
        let g = Workloads.Npbench.stencil5 () in
        let xforms =
          [
            Transforms.Map_tiling.make ~tile_size:4 Transforms.Map_tiling.Correct;
            Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible;
          ]
        in
        let optimized, log = Pipeline.optimize ~config g xforms in
        Alcotest.(check bool) "something applied" true (log.applied >= 1);
        Alcotest.(check bool) "something rejected" true (log.rejected >= 1);
        (* the gated result is semantically identical to the original *)
        let n = 8 in
        let inputs =
          [ ("inp", Array.init (n * n) (fun i -> Float.sin (float_of_int i))); ("out", Array.make (n * n) 0.) ]
        in
        let o1 = run_ok g ~symbols:[ ("N", n) ] ~inputs in
        let o2 = run_ok optimized ~symbols:[ ("N", n) ] ~inputs in
        Alcotest.(check bool) "same results" true (externals_equal g o1 o2);
        Alcotest.(check int) "still valid" 0 (List.length (Sdfg.Validate.check optimized)));
    Alcotest.test_case "original program is never mutated" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let before = Sdfg.Serialize.to_string g in
        let _ =
          Pipeline.optimize ~config g [ Transforms.Map_tiling.make Transforms.Map_tiling.Correct ]
        in
        Alcotest.(check string) "unchanged" before (Sdfg.Serialize.to_string g));
    Alcotest.test_case "log accounts for every step" `Quick (fun () ->
        let g = Workloads.Npbench.atax () in
        let _, log =
          Pipeline.optimize ~config g
            [ Transforms.Buffer_tiling.make ~tile:4 Transforms.Buffer_tiling.Wrong_scheduling ]
        in
        Alcotest.(check int) "steps" (log.applied + log.rejected + log.stale)
          (List.length log.steps);
        Alcotest.(check bool) "buggy rejected" true (log.rejected >= 1));
  ]

(* The paper's Sec. 6.4 workloads under the shipped transformations, at one
   trial: instances that raise (unbound symbols without a concretization,
   scope lookups on rewritten CLOUDSC states) are settled as typed steps. *)
let shipped ?(static_gate = false) g concretization =
  let config = { Difftest.default_config with trials = 1; concretization } in
  Pipeline.optimize ~config ~static_gate g (Transforms.Registry.as_shipped ())

let check_settled (log : Pipeline.log) =
  let crashed =
    List.filter_map
      (fun (s : Pipeline.step) ->
        match s.decision with Pipeline.Crashed detail -> Some detail | _ -> None)
      log.steps
  in
  Alcotest.(check int) "crashed steps counted" (List.length crashed) log.crashed;
  List.iter (fun d -> Alcotest.(check bool) "crash detail names it" true (d <> "")) crashed;
  Alcotest.(check int) "counts cover every step" (List.length log.steps)
    (log.applied + log.proved + log.rejected + log.stale + log.crashed)

let settle_tests =
  [
    Alcotest.test_case "cloudsc without a concretization settles every step" `Quick (fun () ->
        let _, log = shipped (Workloads.Cloudsc.build ()) [] in
        check_settled log;
        Alcotest.(check bool) "unbound symbols crash" true (log.crashed > 0));
    Alcotest.test_case "cloudsc at its default symbols: consumed sites are stale" `Quick
      (fun () ->
        let _, log = shipped (Workloads.Cloudsc.build ()) Workloads.Cloudsc.default_symbols in
        check_settled log;
        let stale =
          List.filter_map
            (fun (s : Pipeline.step) ->
              match s.decision with
              | Pipeline.Stale _ -> Some (s.xform_name, s.site.Transforms.Xform.states)
              | _ -> None)
            log.steps
        in
        Alcotest.(check (list (pair string (list int))))
          "the two StateFusion sites an earlier fusion consumed"
          [ ("StateFusion", [ 8; 9 ]); ("StateFusion", [ 1; 11 ]) ]
          stale);
    Alcotest.test_case "cloudsc at its own symbols: no step crashes" `Quick (fun () ->
        List.iter
          (fun (set, xforms) ->
            List.iter
              (fun static_gate ->
                let what = Printf.sprintf "%s set, static gate %b" set static_gate in
                let config =
                  {
                    Difftest.default_config with
                    trials = 1;
                    concretization = Workloads.Cloudsc.default_symbols;
                  }
                in
                let _, log =
                  Pipeline.optimize ~config ~static_gate (Workloads.Cloudsc.build ()) (xforms ())
                in
                check_settled log;
                Alcotest.(check int) (what ^ ": crashed") 0 log.crashed;
                (* the fused state's map scopes overlap without nesting *)
                match
                  List.find
                    (fun (s : Pipeline.step) ->
                      s.xform_name = "StateFusion" && s.site.Transforms.Xform.states = [ 9; 10 ])
                    log.steps
                with
                | { decision = Pipeline.Rejected { Difftest.klass = Difftest.Invalid_code; _ }; _ }
                  ->
                    ()
                | _ -> Alcotest.failf "%s: StateFusion 9+10 is not rejected as invalid code" what)
              [ false; true ])
          [
            ("shipped", Transforms.Registry.as_shipped);
            ("correct", Transforms.Registry.all_correct);
          ]);
    Alcotest.test_case "bert under the static gate without a concretization" `Quick (fun () ->
        let _, log = shipped ~static_gate:true (Workloads.Bert.build ()) [] in
        check_settled log;
        Alcotest.(check bool) "unbound symbols crash" true (log.crashed > 0));
    Alcotest.test_case "sddmm settles every step" `Quick (fun () ->
        let g, _, _ = Workloads.Sddmm.rank_program () in
        let _, log = shipped g [] in
        check_settled log;
        Alcotest.(check bool) "unbound symbols crash" true (log.crashed > 0));
  ]

(* One guarded pipeline over [g]: no step raises and the output validates.
   Returns the number of steps. *)
let stays_valid ~what ~config ~static_gate g xforms =
  let optimized, log = Pipeline.optimize ~config ~static_gate g xforms in
  List.iter
    (fun (s : Pipeline.step) ->
      match s.decision with
      | Pipeline.Crashed detail -> Alcotest.failf "%s: %s crashed: %s" what s.xform_name detail
      | _ -> ())
    log.steps;
  (match Sdfg.Validate.check optimized with
  | [] -> ()
  | e :: _ ->
      Alcotest.failf "%s: the output does not validate: %s" what
        (Format.asprintf "%a" Sdfg.Validate.pp_error e));
  List.length log.steps

(* Random programs through whole pipelines: four admitted programs of every
   generator style, under both transformation sets, with and without the
   static gate. *)
let stress_tests =
  [
    Alcotest.test_case "generated programs through every pipeline stay valid" `Quick (fun () ->
        let sets =
          [ ("shipped", Transforms.Registry.as_shipped); ("correct", Transforms.Registry.all_correct) ]
        in
        let steps = ref 0 in
        List.iter
          (fun (style : Gen.Styles.t) ->
            let admitted, _ = Gen.Admit.batch ~style ~seed:42 ~n:4 () in
            List.iter
              (fun (c : Gen.Generate.t) ->
                let concretization = Gen.Admit.concretize c.graph in
                let config = { Difftest.default_config with trials = 5; concretization } in
                List.iter
                  (fun (set, xforms) ->
                    List.iter
                      (fun static_gate ->
                        let what = Printf.sprintf "%s, %s, static gate %b" c.name set static_gate in
                        steps := !steps + stays_valid ~what ~config ~static_gate c.graph (xforms ()))
                      [ false; true ])
                  sets)
              admitted)
          Gen.Styles.all;
        (* the batch is fixed by its seed: a smaller count means fewer
           sites matched, and less of the pipelines was exercised *)
        Alcotest.(check int) "steps over the batch" 800 !steps);
    Alcotest.test_case "proved instances of generated programs pass 20 fuzz trials" `Quick
      (fun () ->
        (* for each generator seed, four admitted programs of every style
           under both transformation sets: a gated campaign (one memo over
           all of its instances) and an ungated one at 20 trials. An
           instance the gated campaign proves must not fail the ungated
           one, as invalid code or otherwise. *)
        let proved = ref 0 in
        List.iter
          (fun seed ->
            let programs =
              List.concat_map
                (fun style ->
                  List.map
                    (fun (c : Gen.Generate.t) -> (c.name, c.graph))
                    (fst (Gen.Admit.batch ~style ~seed ~n:4 ())))
                Gen.Styles.all
            in
            let concretization =
              List.sort_uniq compare
                (List.concat_map (fun (_, g) -> Gen.Admit.concretize g) programs)
            in
            let config = { Difftest.default_config with trials = 20; seed; concretization } in
            List.iter
              (fun xforms ->
                let gated =
                  Campaign.run ~config ~static_gate:true ~certify_gate:true programs (xforms ())
                in
                let fuzzed = Campaign.run ~config programs (xforms ()) in
                List.iter2
                  (fun (p : Campaign.outcome) (f : Campaign.outcome) ->
                    if p.o_verdict = Campaign.O_proved then begin
                      incr proved;
                      match f.o_verdict with
                      | Campaign.O_passed -> ()
                      | _ ->
                          Alcotest.failf "seed %d: %s is proved but fails the fuzz path" seed
                            (Campaign.instance_id ~program:f.o_program ~xform:f.o_xform f.o_site)
                    end)
                  gated.outcomes fuzzed.outcomes)
              [ Transforms.Registry.as_shipped; Transforms.Registry.all_correct ])
          [ 1; 2; 3; 42 ];
        Alcotest.(check bool) "some instance is proved" true (!proved > 0));
  ]

let () =
  Alcotest.run "pipeline"
    [ ("pipeline", pipeline_tests); ("settle", settle_tests); ("stress", stress_tests) ]
