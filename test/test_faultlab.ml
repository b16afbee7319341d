(* The fault-injection lab: catalog determinism, mutation arming, outcome
   classification, and a fast end-to-end selfcheck slice (the full campaign
   runs as `fuzzyflow selfcheck` in CI's smoke job). *)

open Faultlab

let spec_ids specs = List.map (fun (s : Plan.spec) -> s.Plan.id) specs

let interp_spec inject expect =
  {
    Plan.id = "interp/scale/test";
    level = Plan.L_interp;
    expect;
    descr = "test spec";
    payload = Plan.Interp_fault { workload = "scale"; inject };
  }

let verdict ?(klass = None) ?(localized = None) ?(audit_flagged = None) ?(dep_witness = None)
    ?(dep_confirmed = None) () =
  Selfcheck.R_verdict
    {
      klass;
      first_trial = 1;
      failing_trials = 1;
      localized;
      audit_flagged;
      dep_witness;
      dep_confirmed;
      detail = "d";
    }

let plan_tests =
  [
    Alcotest.test_case "catalog is deterministic for a seed" `Quick (fun () ->
        let a = Plan.catalog ~seed:7 () and b = Plan.catalog ~seed:7 () in
        Alcotest.(check (list string)) "same ids" (spec_ids a) (spec_ids b);
        Alcotest.(check bool) "non-empty" true (a <> []));
    Alcotest.test_case "spec ids are unique" `Quick (fun () ->
        let ids = spec_ids (Plan.catalog ~seed:42 ()) in
        Alcotest.(check int) "no duplicates" (List.length ids)
          (List.length (List.sort_uniq compare ids)));
    Alcotest.test_case "catalog covers all three levels" `Quick (fun () ->
        let specs = Plan.catalog ~seed:42 () in
        List.iter
          (fun l ->
            Alcotest.(check bool)
              ("has " ^ Plan.level_to_string l)
              true
              (List.exists (fun (s : Plan.spec) -> s.Plan.level = l) specs))
          [ Plan.L_interp; Plan.L_transform; Plan.L_mpi ]);
    Alcotest.test_case "level filter restricts the catalog" `Quick (fun () ->
        let mpi = Plan.catalog ~level:Plan.L_mpi ~seed:42 () in
        Alcotest.(check bool) "only mpi" true
          (mpi <> [] && List.for_all (fun (s : Plan.spec) -> s.Plan.level = Plan.L_mpi) mpi));
    Alcotest.test_case "every transform spec records its ground truth" `Quick (fun () ->
        List.iter
          (fun (s : Plan.spec) ->
            match s.Plan.payload with
            | Plan.Transform_fault { expected_containers; _ } ->
                Alcotest.(check bool) (s.Plan.id ^ " has containers") true
                  (expected_containers <> [])
            | _ -> ())
          (Plan.catalog ~level:Plan.L_transform ~seed:42 ()));
  ]

let mutate_tests =
  [
    Alcotest.test_case "identity transform does not change the graph" `Quick (fun () ->
        let g = Plan.workload_by_name "scale" in
        let before = Sdfg.Serialize.to_string g in
        let x = Mutate.identity () in
        let site = List.hd (x.Transforms.Xform.find g) in
        let _ = x.Transforms.Xform.apply g site in
        Alcotest.(check string) "unchanged" before (Sdfg.Serialize.to_string g));
    Alcotest.test_case "seeded mutations actually damage the graph" `Quick (fun () ->
        let base =
          Transforms.Map_tiling.make ~tile_size:32 Transforms.Map_tiling.Correct
        in
        List.iter
          (fun kind ->
            let g = Plan.workload_by_name "jacobi_1d" in
            match Mutate.probe ~seed:0 kind base g with
            | None -> Alcotest.fail (Mutate.kind_to_string kind ^ " did not arm")
            | Some (site, containers) ->
                Alcotest.(check bool) "names damaged containers" true (containers <> []);
                let clean = Sdfg.Graph.copy g and dirty = Sdfg.Graph.copy g in
                let _ = base.Transforms.Xform.apply clean site in
                let _ = (Mutate.seed_bug ~seed:0 kind base).Transforms.Xform.apply dirty site in
                Alcotest.(check bool)
                  (Mutate.kind_to_string kind ^ " differs from clean application")
                  false
                  (Sdfg.Serialize.to_string clean = Sdfg.Serialize.to_string dirty))
          [ Mutate.Subset_shift; Mutate.Drop_memlet; Mutate.Wrong_stride ]);
    Alcotest.test_case "seeded transforms claim Known_unsound" `Quick (fun () ->
        let base = Transforms.Map_tiling.make ~tile_size:32 Transforms.Map_tiling.Correct in
        let b = Mutate.seed_bug Mutate.Drop_memlet base in
        match b.Transforms.Xform.certify_hint with
        | Some (Transforms.Xform.Known_unsound _) -> ()
        | _ -> Alcotest.fail "expected Known_unsound certify hint");
    Alcotest.test_case "kind names round-trip" `Quick (fun () ->
        List.iter
          (fun k ->
            Alcotest.(check bool) "roundtrip" true
              (Mutate.kind_of_string (Mutate.kind_to_string k) = k))
          [ Mutate.Subset_shift; Mutate.Drop_memlet; Mutate.Wrong_stride ]);
  ]

let classify_tests =
  [
    Alcotest.test_case "semantics obligation met" `Quick (fun () ->
        let spec = interp_spec (Interp.Exec.Set_nan { nth_write = 0 }) Plan.Must_semantics in
        match Selfcheck.classify spec (verdict ~klass:(Some Fuzzyflow.Difftest.Semantics) ()) with
        | Selfcheck.Detected _ -> ()
        | o -> Alcotest.fail ("expected Detected, got " ^ Selfcheck.outcome_name o));
    Alcotest.test_case "wrong class is Misclassified, not Detected" `Quick (fun () ->
        let spec = interp_spec (Interp.Exec.Set_nan { nth_write = 0 }) Plan.Must_semantics in
        match
          Selfcheck.classify spec (verdict ~klass:(Some Fuzzyflow.Difftest.Input_dependent) ())
        with
        | Selfcheck.Misclassified _ -> ()
        | o -> Alcotest.fail ("expected Misclassified, got " ^ Selfcheck.outcome_name o));
    Alcotest.test_case "a silent oracle is a Miss" `Quick (fun () ->
        let spec = interp_spec (Interp.Exec.Set_nan { nth_write = 0 }) Plan.Must_semantics in
        match Selfcheck.classify spec (verdict ()) with
        | Selfcheck.Missed _ -> ()
        | o -> Alcotest.fail ("expected Missed, got " ^ Selfcheck.outcome_name o));
    Alcotest.test_case "any failing class satisfies Must_detect" `Quick (fun () ->
        let spec = interp_spec (Interp.Exec.Shift_index { nth_subset = 0; delta = 1 }) Plan.Must_detect in
        List.iter
          (fun klass ->
            match Selfcheck.classify spec (verdict ~klass:(Some klass) ()) with
            | Selfcheck.Detected _ -> ()
            | o -> Alcotest.fail ("expected Detected, got " ^ Selfcheck.outcome_name o))
          [ Fuzzyflow.Difftest.Semantics; Fuzzyflow.Difftest.Input_dependent; Fuzzyflow.Difftest.Invalid_code ]);
  ]

let selfcheck_tests =
  [
    Alcotest.test_case "interp probe catches a seeded NaN through the full pipeline" `Slow
      (fun () ->
        let spec = interp_spec (Interp.Exec.Set_nan { nth_write = 0 }) Plan.Must_semantics in
        match Selfcheck.probe_spec ~trials:4 ~seed:11 spec with
        | Selfcheck.R_verdict { klass = Some Fuzzyflow.Difftest.Semantics; _ } -> ()
        | Selfcheck.R_verdict { detail; _ } -> Alcotest.fail ("not semantics: " ^ detail)
        | Selfcheck.R_mpi _ | Selfcheck.R_net _ ->
            Alcotest.fail "unexpected non-verdict result");
    Alcotest.test_case "mpi campaign level: every disturbance detected, report deterministic"
      `Slow (fun () ->
        let run () = Selfcheck.run ~j:2 ~trials:2 ~level:Plan.L_mpi ~seed:42 () in
        let a = run () and b = run () in
        Alcotest.(check string) "byte-identical reports" (Selfcheck.to_jsonl a)
          (Selfcheck.to_jsonl b);
        Alcotest.(check bool) "gate passes" true (Selfcheck.passed a);
        let t = Selfcheck.totals a in
        Alcotest.(check int) "all mpi specs detected" t.Selfcheck.mpi_total
          t.Selfcheck.mpi_detected;
        Alcotest.(check int) "nothing quarantined" 0 t.Selfcheck.quarantined);
    Alcotest.test_case "interp level on supervised workers: identical at -j 1 and -j 2" `Slow
      (fun () ->
        let run j = Selfcheck.run ~j ~trials:2 ~level:Plan.L_interp ~seed:42 () in
        let a = run 1 and b = run 2 in
        Alcotest.(check string) "byte-identical reports" (Selfcheck.to_jsonl a)
          (Selfcheck.to_jsonl b);
        let t = Selfcheck.totals a in
        Alcotest.(check bool) "catalog non-empty" true (t.Selfcheck.core_total > 0);
        Alcotest.(check int) "every core spec detected" t.Selfcheck.core_total
          t.Selfcheck.core_detected;
        Alcotest.(check int) "nothing quarantined" 0 t.Selfcheck.quarantined);
    Alcotest.test_case "a deadline no probe meets quarantines every supervised probe" `Slow
      (fun () ->
        let r = Selfcheck.run ~j:2 ~deadline_s:1e-6 ~trials:2 ~level:Plan.L_interp ~seed:42 () in
        Alcotest.(check bool) "catalog non-empty" true (r.Selfcheck.rows <> []);
        List.iter
          (fun (row : Selfcheck.row) ->
            match row.Selfcheck.outcome with
            | Selfcheck.Quarantined { detail } ->
                Alcotest.(check string) "detail" "timed out after 0.0s" detail;
                Alcotest.(check int) "attempts" 3 row.Selfcheck.attempts
            | o ->
                Alcotest.fail
                  (row.Selfcheck.spec.Plan.id ^ ": expected Quarantined, got "
                 ^ Selfcheck.outcome_name o))
          r.Selfcheck.rows);
  ]

let () =
  Alcotest.run "faultlab"
    [
      ("plan", plan_tests);
      ("mutate", mutate_tests);
      ("classify", classify_tests);
      ("selfcheck", selfcheck_tests);
    ]
