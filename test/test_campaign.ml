(* Campaign aggregation and the Table 1 requirements model. *)

open Fuzzyflow

let config =
  { Difftest.default_config with trials = 6; max_size = 8; concretization = [ ("N", 8) ] }

let campaign_tests =
  [
    Alcotest.test_case "rows aggregate instances and verdicts" `Quick (fun () ->
        let programs = [ ("scale", Workloads.Npbench.scale ()); ("axpy", Workloads.Npbench.axpy ()) ] in
        let good = Transforms.Map_tiling.make ~tile_size:4 Transforms.Map_tiling.Correct in
        let bad = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible in
        let c = Campaign.run ~config programs [ good; bad ] in
        Alcotest.(check int) "two rows" 2 (List.length c.rows);
        let tiling = List.assoc good.name c.rows in
        Alcotest.(check int) "tiling instances" 2 tiling.instances;
        Alcotest.(check int) "tiling all pass" 0 tiling.failed;
        let vec = List.assoc bad.name c.rows in
        Alcotest.(check int) "vec instances" 2 vec.instances;
        Alcotest.(check int) "vec all fail" 2 vec.failed;
        Alcotest.(check int) "totals" 4 c.totals.instances;
        Alcotest.(check int) "total failed" 2 c.totals.failed);
    Alcotest.test_case "limit_per caps instance count" `Quick (fun () ->
        let programs = [ ("chain", Workloads.Chain.build ()) ] in
        let x = Transforms.Map_tiling.make Transforms.Map_tiling.Correct in
        let c = Campaign.run ~config ~limit_per:(Some 1) programs [ x ] in
        Alcotest.(check int) "one instance" 1 c.totals.instances);
    Alcotest.test_case "table rendering mentions every transformation" `Quick (fun () ->
        let programs = [ ("scale", Workloads.Npbench.scale ()) ] in
        let x = Transforms.Map_tiling.make Transforms.Map_tiling.Correct in
        let c = Campaign.run ~config programs [ x ] in
        let table = Campaign.to_table c in
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "mentions" true (contains table "MapTiling"));
    Alcotest.test_case "a crashing instance settles as the engine settles it" `Quick (fun () ->
        (* with no concretization, CLOUDSC's KLEV is unbound: every instance
           raises, and the serial run journals what a -j 1 engine run does *)
        let programs = [ ("cloudsc", Workloads.Cloudsc.build ()) ] in
        let xforms = Transforms.Registry.as_shipped () in
        let config = { Difftest.default_config with trials = 2 } in
        let limit_per = Some 1 in
        let serial = Campaign.run ~config ~limit_per programs xforms in
        let engine =
          Engine.Worker.run_campaign
            ~options:{ Engine.Worker.default_options with j = 1; limit_per }
            ~config programs xforms
        in
        let lines c = List.map Engine.Journal.instance_line c.Campaign.outcomes in
        Alcotest.(check (list string)) "journal instance lines" (lines engine) (lines serial);
        Alcotest.(check bool) "instances crashed" true
          (List.exists
             (fun (o : Campaign.outcome) ->
               match o.o_status with Campaign.Crashed _ -> true | _ -> false)
             serial.outcomes));
  ]

(* ---- one static delta per gated instance ---------------------------------- *)

(* CLOUDSC and three NPBench kernels; two of the latter are flagged by the
   coverage check before any transformation *)
let gated_programs () =
  [ ("cloudsc", Workloads.Cloudsc.build ()); ("jacobi_2d", Workloads.Npbench.jacobi_2d ()) ]
  @ List.filter
      (fun (n, _) -> List.mem n [ "adi_lite"; "lenet_conv" ])
      (Workloads.Npb_frontend.all ())

let gated_config =
  {
    Difftest.default_config with
    trials = 2;
    max_size = 8;
    concretization = Workloads.Cloudsc.default_symbols @ [ ("N", 8); ("T", 3) ];
  }

let gated ?memo ~config (pname, g) x site =
  Campaign.run_instance ?memo ~config ~static_gate:true ~certify_gate:true ~program:(pname, g) x
    site

(* [x] with a counter of its [apply] calls *)
let counting (x : Transforms.Xform.t) =
  let n = ref 0 in
  ( {
      x with
      Transforms.Xform.apply =
        (fun g site ->
          incr n;
          x.apply g site);
    },
    n )

let static_delta_tests =
  [
    Alcotest.test_case "the gates apply the transformation once" `Quick (fun () ->
        (* a refuted instance, so it is fuzzed whichever gates are on *)
        let g = Workloads.Cloudsc.build () in
        let x, n =
          counting
            (Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible)
        in
        let site = List.hd (x.Transforms.Xform.find g) in
        let applies ~static_gate ~certify_gate =
          n := 0;
          ignore
            (Campaign.run_instance ~config:gated_config ~static_gate ~certify_gate
               ~program:("cloudsc", g) x site);
          !n
        in
        let fuzzing = applies ~static_gate:false ~certify_gate:false in
        List.iter
          (fun (static_gate, certify_gate) ->
            Alcotest.(check int)
              (Printf.sprintf "static %b, certify %b" static_gate certify_gate)
              (fuzzing + 1)
              (applies ~static_gate ~certify_gate))
          [ (true, false); (false, true); (true, true) ];
        (* the guarded optimizer: one application for the audit, the delta
           and the proof, one to the program *)
        let g = Workloads.Npbench.scale () in
        let x, n = counting (Transforms.Map_tiling.make Transforms.Map_tiling.Correct) in
        let _, log =
          Pipeline.optimize
            ~config:{ gated_config with concretization = [ ("N", 8) ] }
            ~static_gate:true g [ x ]
        in
        Alcotest.(check (pair int int)) "proved and applied" (1, 2) (log.Pipeline.proved, !n));
    Alcotest.test_case "a campaign's memo leaves every gated result unchanged" `Quick (fun () ->
        let programs = gated_programs () in
        List.iter
          (fun xforms ->
            let c =
              Campaign.run ~config:gated_config ~limit_per:(Some 1) ~static_gate:true
                ~certify_gate:true programs xforms
            in
            (* the same instances in Campaign.run's order, each on its own
               with a fresh memo *)
            let alone =
              List.concat_map
                (fun (x : Transforms.Xform.t) ->
                  List.concat_map
                    (fun (pname, g) ->
                      List.filteri (fun i _ -> i < 1) (x.Transforms.Xform.find g)
                      |> List.map (fun site ->
                             let id = Campaign.instance_id ~program:pname ~xform:x.name site in
                             let seed =
                               Campaign.instance_seed ~global:gated_config.Difftest.seed id
                             in
                             let config = { gated_config with Difftest.seed } in
                             let memo = Analysis.Delta.create_memo () in
                             (gated ~memo ~config (pname, g) x site, seed)))
                    programs)
                xforms
            in
            Alcotest.(check (list string))
              "journal instance lines"
              (List.map
                 (fun (r, seed) ->
                   Engine.Journal.instance_line (Campaign.outcome_of_result ~seed r))
                 alone)
              (List.map Engine.Journal.instance_line c.Campaign.outcomes);
            List.iter2
              (fun ((a : Campaign.instance_result), _) (r : Campaign.instance_result) ->
                let id = a.Campaign.xform_name ^ " on " ^ a.Campaign.program in
                Alcotest.(check bool) (id ^ ": static findings") true (a.static = r.static);
                Alcotest.(check bool) (id ^ ": dep_stats") true (a.dep_stats = r.dep_stats);
                Alcotest.(check bool) (id ^ ": verdict") true (a.verdict = r.verdict))
              alone c.Campaign.results;
            Alcotest.(check bool) "some instance has static findings" true
              (List.exists (fun (r : Campaign.instance_result) -> r.static <> []) c.results))
          [ Transforms.Registry.as_shipped (); Transforms.Registry.all_correct () ]);
    Alcotest.test_case "one memo analyzes each unchanged program once" `Quick (fun () ->
        let memo = Analysis.Delta.create_memo () in
        let baselines () = (Analysis.Delta.memo_stats memo).Analysis.Reuse.baselines in
        let x = Transforms.Map_tiling.make Transforms.Map_tiling.Correct in
        let instances n (pname, g) =
          List.filteri (fun i _ -> i < n) (x.Transforms.Xform.find g)
          |> List.map (fun site -> ((pname, g), site))
        in
        let cloudsc = instances 3 ("cloudsc", Workloads.Cloudsc.build ()) in
        let jacobi = instances 2 ("jacobi_2d", Workloads.Npbench.jacobi_2d ()) in
        Alcotest.(check (pair int int))
          "instances" (3, 2)
          (List.length cloudsc, List.length jacobi);
        let run ~config = List.iter (fun (p, site) -> ignore (gated ~memo ~config p x site)) in
        run ~config:gated_config cloudsc;
        Alcotest.(check (pair int int)) "one program" (2, 1) (baselines ());
        run ~config:gated_config (jacobi @ cloudsc);
        Alcotest.(check (pair int int)) "a second program" (6, 2) (baselines ());
        (* a rebuilt graph with the same content is the same baseline; the
           same program under other symbols is another *)
        run ~config:gated_config (instances 1 ("cloudsc", Workloads.Cloudsc.build ()));
        let other = { gated_config with concretization = [ ("KLEV", 4); ("KLON", 5) ] } in
        run ~config:other (instances 1 ("cloudsc", Workloads.Cloudsc.build ()));
        Alcotest.(check (pair int int)) "one miss per (digest, symbols)" (7, 3) (baselines ()));
    Alcotest.test_case "a proved instance's transformed program validates" `Quick (fun () ->
        (* on these generated GPU programs RedundantArrayRemoval leaves a
           GPU scope reading a host container at most of its sites, while
           the summaries still match: equal dataflow, invalid code *)
        let style = Option.get (Gen.Styles.by_name "gpu") in
        let admitted, _ = Gen.Admit.batch ~style ~seed:42 ~n:12 () in
        let programs =
          List.map
            (fun (c : Gen.Generate.t) -> (c.Gen.Generate.name, c.Gen.Generate.graph))
            admitted
        in
        let x =
          List.find
            (fun (x : Transforms.Xform.t) -> x.name = "RedundantArrayRemoval")
            (Transforms.Registry.as_shipped ())
        in
        let config =
          {
            Difftest.default_config with
            trials = 5;
            concretization = [ ("N", 8); ("T", 3); ("H", 4); ("R", 3); ("Q", 4); ("P", 3) ];
          }
        in
        let invalid (r : Campaign.instance_result) =
          let g' = Sdfg.Graph.copy (List.assoc r.program programs) in
          ignore (x.apply g' r.site);
          Sdfg.Validate.check g' <> []
        in
        let c = Campaign.run ~config ~certify_gate:true programs [ x ] in
        Alcotest.(check bool) "some transformed copy fails validation" true
          (List.exists invalid c.results);
        (* the gate and [certify] (the CLI's path) follow one rule *)
        List.iter
          (fun (r : Campaign.instance_result) ->
            let certified =
              Analysis.Equiv.certify ~symbols:config.concretization
                (List.assoc r.program programs) x r.site
            in
            match (r.verdict, certified) with
            | (Some (Analysis.Equiv.Equivalent _), _ | _, Some (Analysis.Equiv.Equivalent _))
              when invalid r ->
                Alcotest.failf "%s @ %s: proved, but its transformed copy fails validation"
                  r.program
                  (Transforms.Xform.site_slug r.site)
            | _ -> ())
          c.results;
        Alcotest.(check bool) "the rest is still proved" true (c.totals.proved > 0);
        List.iter
          (fun (pname, g) ->
            let g', log = Pipeline.optimize ~config ~static_gate:true g [ x ] in
            if log.Pipeline.crashed > 0 then Alcotest.failf "%s: a step crashed" pname;
            if Sdfg.Validate.check g' <> [] then
              Alcotest.failf "%s: the optimized program fails validation" pname)
          programs);
  ]

(* ---------------- the tally ---------------- *)

let xforms = Transforms.Registry.as_shipped ()

(* Any outcome, including verdict/status pairs no campaign writes (a failing
   verdict on a timed-out instance, a completed [O_killed]). *)
let gen_outcome =
  QCheck.Gen.(
    let* xform = oneofl (List.map (fun (x : Transforms.Xform.t) -> x.name) xforms) in
    let* verdict =
      oneof
        [
          return Campaign.O_passed;
          return Campaign.O_proved;
          return Campaign.O_killed;
          map
            (fun klass -> Campaign.O_failed { klass; first_trial = 1; failing_trials = 1 })
            (oneofl [ Difftest.Semantics; Difftest.Input_dependent; Difftest.Invalid_code ]);
        ]
    in
    let* status =
      oneofl
        [
          Campaign.Completed;
          Campaign.Timed_out { deadline_s = 1. };
          Campaign.Crashed { detail = "signal 9" };
        ]
    in
    let* trials, flagged = pair small_nat bool in
    let* pairs, decided, sampled = triple small_nat small_nat small_nat in
    return
      {
        Campaign.o_program = "p";
        o_xform = xform;
        o_site = Transforms.Xform.dataflow_site ~state:0 ~nodes:[] ~descr:"";
        o_status = status;
        o_verdict = verdict;
        o_trials_run = trials;
        o_static_flagged = flagged;
        o_dep_pairs = pairs;
        o_dep_decided = decided;
        o_dep_sampled = sampled;
        o_elapsed_s = 0.;
        o_seed = 1;
      })

let counts (t : Campaign.tally) =
  [
    t.instances; t.passed; t.proved; t.failed; t.killed; t.static_flagged; t.trials; t.dep_pairs;
    t.dep_decided; t.dep_sampled;
  ]
  @ List.map snd t.classes

let prop_tally_partitions =
  QCheck.Test.make ~name:"the tally counts each outcome once" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) gen_outcome))
    (fun outcomes ->
      let t = Campaign.tally outcomes in
      t.instances = List.length outcomes
      && t.passed + t.proved + t.failed + t.killed = t.instances
      && List.fold_left (fun acc (_, n) -> acc + n) 0 t.classes = t.failed)

let prop_rows_sum_to_totals =
  QCheck.Test.make ~name:"the rows sum to the totals" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) gen_outcome))
    (fun outcomes ->
      let c = Campaign.assemble xforms outcomes in
      let sum =
        List.fold_left
          (fun acc (_, row) -> List.map2 ( + ) acc (counts row))
          (List.map (fun _ -> 0) (counts c.totals))
          c.rows
      in
      sum = counts c.totals && c.totals = Campaign.tally outcomes)

let requirements_tests =
  [
    Alcotest.test_case "five capabilities, five representations" `Quick (fun () ->
        Alcotest.(check int) "caps" 5 (List.length Requirements.capabilities);
        Alcotest.(check int) "reprs" 5 (List.length Requirements.representations));
    Alcotest.test_case "parametric dataflow uniquely complete" `Quick (fun () ->
        Alcotest.(check bool) "unique" true (Requirements.parametric_dataflow_is_complete ()));
    Alcotest.test_case "MLIR sub-region support is partial" `Quick (fun () ->
        let mlir =
          List.find (fun (r : Requirements.representation) -> r.name = "MLIR")
            Requirements.representations
        in
        match List.assoc Requirements.Subregion_side_effects mlir.support with
        | Requirements.Partial _ -> ()
        | _ -> Alcotest.fail "expected partial");
    Alcotest.test_case "table renders" `Quick (fun () ->
        Alcotest.(check bool) "nonempty" true (String.length (Requirements.to_table ()) > 200));
  ]

let () =
  Alcotest.run "campaign"
    [
      ("campaign", campaign_tests);
      ("static-delta", static_delta_tests);
      ( "tally",
        List.map QCheck_alcotest.to_alcotest [ prop_tally_partitions; prop_rows_sum_to_totals ] );
      ("requirements", requirements_tests);
    ]
