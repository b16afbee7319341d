(* The interstate dataflow framework: the fixpoint solver itself, the
   liveness / reaching-definitions / interval passes built on it, the
   change-set audit, and the clean-corpus regressions that pin the whole
   suite to zero definite findings and bounded convergence. *)

open Sdfg
module B = Builder.Build
module Fx = Analysis.Fixpoint

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

let registry_xforms () =
  Transforms.Registry.as_shipped () @ Transforms.Registry.all_correct ()
  |> List.fold_left
       (fun acc (x : Transforms.Xform.t) ->
         if List.exists (fun (y : Transforms.Xform.t) -> y.name = x.name) acc then acc
         else x :: acc)
       []
  |> List.rev

(* s0 -> {s1, s2} -> s3 *)
let diamond () =
  let g = Graph.create "diamond" in
  let s0 = Graph.add_state g "a" in
  let s1 = Graph.add_state g "b" in
  let s2 = Graph.add_state g "c" in
  let s3 = Graph.add_state g "d" in
  ignore (Graph.add_istate_edge g s0 s1);
  ignore (Graph.add_istate_edge g s0 s2);
  ignore (Graph.add_istate_edge g s1 s3);
  ignore (Graph.add_istate_edge g s2 s3);
  (g, s0, s1, s2, s3)

(* int-set lattice collecting visited state ids *)
let visited_lattice =
  {
    Fx.bottom = [];
    equal = ( = );
    join = (fun a b -> List.sort_uniq compare (a @ b));
    widen = None;
  }

let visit_all ?direction g =
  Fx.solve ?direction ~lattice:visited_lattice ~init:[]
    ~transfer:(fun sid f -> List.sort_uniq compare (sid :: f))
    ~edge:(fun _ f -> f)
    g

let fixpoint_tests =
  [
    Alcotest.test_case "forward facts flow through a diamond" `Quick (fun () ->
        let g, s0, s1, s2, s3 = diamond () in
        let sol = visit_all g in
        Alcotest.(check bool) "converged" true sol.Fx.converged;
        Alcotest.(check (option (list int)))
          "join of both arms at the sink"
          (Some [ s0; s1; s2 ])
          (Fx.entry_fact sol s3);
        Alcotest.(check (option (list int))) "root entry is init" (Some []) (Fx.entry_fact sol s0);
        Alcotest.(check bool) "few passes" true (sol.Fx.iterations <= 4));
    Alcotest.test_case "backward facts flow against control flow" `Quick (fun () ->
        let g, s0, _, _, s3 = diamond () in
        let sol = visit_all ~direction:Fx.Backward g in
        (match Fx.entry_fact sol s0 with
        | Some f -> Alcotest.(check bool) "sink reaches the source" true (List.mem s3 f)
        | None -> Alcotest.fail "no fact for the source");
        Alcotest.(check (option (list int))) "sink entry is init" (Some []) (Fx.entry_fact sol s3));
    Alcotest.test_case "pass cap reports non-convergence" `Quick (fun () ->
        (* a self-loop with a strictly growing counter can never stabilize *)
        let g = Graph.create "loop" in
        let s0 = Graph.add_state g "s" in
        ignore (Graph.add_istate_edge g s0 s0);
        let counting =
          { Fx.bottom = 0; equal = ( = ); join = max; widen = None }
        in
        let sol =
          Fx.solve ~max_passes:5 ~lattice:counting ~init:0
            ~transfer:(fun _ f -> f)
            ~edge:(fun _ f -> f + 1)
            g
        in
        Alcotest.(check bool) "cap hit" false sol.Fx.converged;
        Alcotest.(check int) "stopped at the cap" 5 sol.Fx.iterations);
    Alcotest.test_case "widening forces convergence" `Quick (fun () ->
        let g = Graph.create "loop" in
        let s0 = Graph.add_state g "s" in
        ignore (Graph.add_istate_edge g s0 s0);
        let widening =
          {
            Fx.bottom = 0;
            equal = ( = );
            join = max;
            widen = Some (fun old n -> if n > old then max_int else old);
          }
        in
        let sol =
          Fx.solve ~widen_after:2 ~lattice:widening ~init:0
            ~transfer:(fun _ f -> f)
            ~edge:(fun _ f -> if f = max_int then f else f + 1)
            g
        in
        Alcotest.(check bool) "converged after widening" true sol.Fx.converged);
  ]

(* ---- liveness ------------------------------------------------------------ *)

(* s0 writes tmp; s1 reads tmp into out; s2 overwrites tmp, never read again *)
let dead_tail_write () =
  let g = Graph.create "deadtail" in
  Graph.add_array g "x" Dtype.F64 [ sym "N" ];
  Graph.add_array g "out" Dtype.F64 [ sym "N" ];
  Graph.add_array g ~transient:true "tmp" Dtype.F64 [ sym "N" ];
  let add label body =
    let sid = Graph.add_state g label in
    body (Graph.state g sid);
    sid
  in
  let copy st ~from ~into =
    ignore
      (B.mapped_tasklet g st ~label:("cp_" ^ into)
         ~map:[ ("i", "0:N-1") ]
         ~inputs:[ ("v", B.mem from "i") ]
         ~code:"o = v"
         ~outputs:[ ("o", B.mem into "i") ]
         ())
  in
  let s0 = add "produce" (fun st -> copy st ~from:"x" ~into:"tmp") in
  let s1 = add "consume" (fun st -> copy st ~from:"tmp" ~into:"out") in
  let s2 = add "waste" (fun st -> copy st ~from:"x" ~into:"tmp") in
  ignore (Graph.add_istate_edge g s0 s1);
  ignore (Graph.add_istate_edge g s1 s2);
  (g, s2)

let liveness_tests =
  [
    Alcotest.test_case "unobservable tail write is dead" `Quick (fun () ->
        let g, s2 = dead_tail_write () in
        Alcotest.(check (list (pair int string)))
          "exactly the tail write" [ (s2, "tmp") ] (Analysis.Liveness.dead_writes g);
        match Analysis.Liveness.check g with
        | [ f ] ->
            Alcotest.(check string) "container" "tmp" f.Analysis.Report.container;
            Alcotest.(check bool) "dead-write pass" true (f.pass = Analysis.Report.Dead_write);
            Alcotest.(check bool) "warning severity" true
              (f.severity = Analysis.Report.Warning)
        | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
    Alcotest.test_case "consumed writes stay live" `Quick (fun () ->
        let g, s2 = dead_tail_write () in
        (* wire a reader after the tail write: nothing is dead any more *)
        let s3 = Graph.add_state g "late" in
        ignore
          (B.mapped_tasklet g (Graph.state g s3) ~label:"late_read"
             ~map:[ ("i", "0:N-1") ]
             ~inputs:[ ("v", B.mem "tmp" "i") ]
             ~code:"o = v"
             ~outputs:[ ("o", B.mem "out" "i") ]
             ());
        ignore (Graph.add_istate_edge g s2 s3);
        Alcotest.(check (list (pair int string))) "no dead writes" []
          (Analysis.Liveness.dead_writes g));
    Alcotest.test_case "fully dead transient is listed" `Quick (fun () ->
        let g = Graph.create "alldead" in
        Graph.add_array g "x" Dtype.F64 [ sym "N" ];
        Graph.add_array g "out" Dtype.F64 [ sym "N" ];
        Graph.add_array g ~transient:true "tmp" Dtype.F64 [ sym "N" ];
        let s0 = Graph.add_state g "w" in
        ignore
          (B.mapped_tasklet g (Graph.state g s0) ~label:"wr"
             ~map:[ ("i", "0:N-1") ]
             ~inputs:[ ("v", B.mem "x" "i") ]
             ~code:"o = v"
             ~outputs:[ ("o", B.mem "tmp" "i") ]
             ());
        let s1 = Graph.add_state g "r" in
        ignore
          (B.mapped_tasklet g (Graph.state g s1) ~label:"rd"
             ~map:[ ("i", "0:N-1") ]
             ~inputs:[ ("v", B.mem "x" "i") ]
             ~code:"o = v"
             ~outputs:[ ("o", B.mem "out" "i") ]
             ());
        (* tmp is written in s0 and read nowhere afterwards; but it IS read
           nowhere at all, which is Defuse's finding — liveness only reports
           containers that are read somewhere, so this one stays quiet here *)
        ignore (Graph.add_istate_edge g s0 s1);
        Alcotest.(check (list (pair int string))) "defuse's case, not ours" []
          (Analysis.Liveness.dead_writes g));
  ]

(* ---- reaching definitions ------------------------------------------------ *)

(* s0 reads tmp before s1 (the only writer) runs *)
let read_before_write () =
  let g = Graph.create "rbw" in
  Graph.add_array g "x" Dtype.F64 [ sym "N" ];
  Graph.add_array g "out" Dtype.F64 [ sym "N" ];
  Graph.add_array g ~transient:true "tmp" Dtype.F64 [ sym "N" ];
  let s0 = Graph.add_state g "early" in
  ignore
    (B.mapped_tasklet g (Graph.state g s0) ~label:"early_read"
       ~map:[ ("i", "0:N-1") ]
       ~inputs:[ ("v", B.mem "tmp" "i") ]
       ~code:"o = v"
       ~outputs:[ ("o", B.mem "out" "i") ]
       ());
  let s1 = Graph.add_state g "late" in
  ignore
    (B.mapped_tasklet g (Graph.state g s1) ~label:"late_write"
       ~map:[ ("i", "0:N-1") ]
       ~inputs:[ ("v", B.mem "x" "i") ]
       ~code:"o = v"
       ~outputs:[ ("o", B.mem "tmp" "i") ]
       ());
  ignore (Graph.add_istate_edge g s0 s1);
  (g, s0)

let reachdef_tests =
  [
    Alcotest.test_case "read before the only write is definite" `Quick (fun () ->
        let g, s0 = read_before_write () in
        (* whole-program def-use is satisfied (tmp is written somewhere) ... *)
        Alcotest.(check int) "defuse is blind to ordering" 0
          (List.length
             (List.filter
                (fun (f : Analysis.Report.finding) -> f.container = "tmp")
                (Analysis.Defuse.check g)));
        (* ... but no write reaches the early read on any path *)
        match Analysis.Reachdef.check g with
        | [ f ] ->
            Alcotest.(check string) "container" "tmp" f.Analysis.Report.container;
            Alcotest.(check int) "flagged in the reading state" s0 f.Analysis.Report.state;
            Alcotest.(check bool) "definite" true (f.severity = Analysis.Report.Error)
        | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
    Alcotest.test_case "write-then-read is clean" `Quick (fun () ->
        let g, _ = dead_tail_write () in
        Alcotest.(check int) "no findings" 0 (List.length (Analysis.Reachdef.check g)));
    Alcotest.test_case "loop-carried transients are not flagged by default" `Quick (fun () ->
        List.iter
          (fun (name, g) ->
            match Analysis.Reachdef.check g with
            | [] -> ()
            | f :: _ ->
                Alcotest.failf "%s: unexpected %s" name (Analysis.Report.to_string f))
          (all_workloads ()));
  ]

(* ---- intervals ----------------------------------------------------------- *)

let intervals_tests =
  [
    Alcotest.test_case "loop counter gets symbolic bounds" `Quick (fun () ->
        let g = Workloads.Npbench.jacobi_1d () in
        let facts = Analysis.Intervals.facts ~symbols:[ ("N", 8); ("T", 3) ] g in
        match List.assoc_opt "t" facts with
        | Some f ->
            Alcotest.(check bool) "has a lower bound" true (f.Analysis.Intervals.lo <> None);
            Alcotest.(check bool) "has an upper bound" true (f.Analysis.Intervals.hi <> None)
        | None -> Alcotest.fail "no fact for the loop counter t");
    Alcotest.test_case "concrete bounds evaluate under pinned parameters" `Quick (fun () ->
        let g = Workloads.Npbench.jacobi_1d () in
        let symbols = [ ("N", 8); ("T", 3) ] in
        let facts = Analysis.Intervals.facts ~symbols g in
        let bounds = Analysis.Intervals.concrete_bounds ~symbols g facts in
        match List.assoc_opt "t" bounds with
        | Some (Some lo, Some hi) ->
            Alcotest.(check bool) "0 <= t" true (lo >= 0);
            Alcotest.(check bool) "t <= T" true (hi <= 3)
        | _ -> Alcotest.fail "no concrete bounds for t");
    Alcotest.test_case "congruence tracks strides" `Quick (fun () ->
        (* for (k = 0; k < N; k += 2): k stays even *)
        let g = Graph.create "stride" in
        Graph.add_symbol g "N";
        let s0 = Graph.add_state g "init" in
        ignore
          (B.for_loop g ~entry_from:s0 ~var:"k" ~init:Symbolic.Expr.zero
             ~cond:(Symbolic.Cond.Lt (sym "k", sym "N"))
             ~update:(Symbolic.Expr.add (sym "k") (Symbolic.Expr.int 2))
             ~body_label:"body" ~after_label:"done");
        let facts = Analysis.Intervals.facts ~symbols:[ ("N", 8) ] g in
        match List.assoc_opt "k" facts with
        | Some { Analysis.Intervals.cong = Some (m, r); _ } ->
            Alcotest.(check int) "modulus 2" 2 m;
            Alcotest.(check int) "residue 0" 0 r
        | Some f ->
            Alcotest.failf "no stride: %s" (Format.asprintf "%a" Analysis.Intervals.pp_fact f)
        | None -> Alcotest.fail "no fact for k");
  ]

(* ---- change-set audit ---------------------------------------------------- *)

(* edits a state's memlets but declares an empty change set *)
let dishonest_xform () =
  {
    Transforms.Xform.name = "DishonestEdit";
    find =
      (fun g ->
        match Graph.states g with
        | (sid, _) :: _ -> [ Transforms.Xform.dataflow_site ~state:sid ~nodes:[] ~descr:"edit" ]
        | [] -> []);
    apply =
      (fun g site ->
        let st = Graph.state g site.Transforms.Xform.state in
        Transforms.Xform.subst_symbol_in_state st "N" (Symbolic.Expr.int 7);
        Sdfg.Diff.empty);
    certify_hint = None;
  }

let audit_tests =
  [
    Alcotest.test_case "under-declared change set is flagged" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let x = dishonest_xform () in
        match Analysis.Audit.check_xform g x (List.hd (x.Transforms.Xform.find g)) with
        | Some (f :: _ as fs) ->
            Alcotest.(check bool) "change-set pass" true
              (List.for_all
                 (fun (f : Analysis.Report.finding) -> f.pass = Analysis.Report.Change_set)
                 fs);
            Alcotest.(check bool) "definite" true (f.severity = Analysis.Report.Error)
        | Some [] -> Alcotest.fail "dishonest declaration passed the audit"
        | None -> Alcotest.fail "site went stale");
    Alcotest.test_case "honest declaration passes" `Quick (fun () ->
        let g = Workloads.Fig4.build () in
        let x = Transforms.Map_tiling.make ~tile_size:3 Transforms.Map_tiling.Correct in
        List.iter
          (fun site ->
            match Analysis.Audit.check_xform g x site with
            | Some [] -> ()
            | Some (f :: _) -> Alcotest.failf "flagged: %s" (Analysis.Report.to_string f)
            | None -> Alcotest.fail "site went stale")
          (x.Transforms.Xform.find g));
    Alcotest.test_case "every registry declaration covers its true diff" `Quick (fun () ->
        (* the audit's false-positive regression: all instances of all
           registered transformations on all workloads must be audit-clean *)
        List.iter
          (fun (pname, g) ->
            List.iter
              (fun (x : Transforms.Xform.t) ->
                List.iter
                  (fun site ->
                    match Analysis.Audit.check_xform g x site with
                    | None | Some [] -> ()
                    | Some (f :: _) ->
                        Alcotest.failf "%s :: %s under-declared: %s" pname
                          x.Transforms.Xform.name (Analysis.Report.to_string f))
                  (x.Transforms.Xform.find g))
              (registry_xforms ()))
          (all_workloads ()));
  ]

(* ---- translation validation upgrades ------------------------------------- *)

let equiv_upgrade_tests =
  [
    Alcotest.test_case "interval facts upgrade Unknown verdicts" `Quick (fun () ->
        let g = Workloads.Cloudsc.build () in
        let symbols = symbols_of g in
        let memo = Analysis.Delta.create_memo () in
        let upgraded = ref 0 in
        List.iter
          (fun (x : Transforms.Xform.t) ->
            List.iter
              (fun site ->
                match Analysis.Equiv.certify ~use_intervals:false ~memo ~symbols g x site with
                | Some (Analysis.Equiv.Unknown _) -> (
                    match Analysis.Equiv.certify ~memo ~symbols g x site with
                    | Some (Analysis.Equiv.Equivalent _) -> incr upgraded
                    | _ -> ())
                | _ -> ())
              (x.Transforms.Xform.find g))
          (Transforms.Registry.all_correct ());
        Alcotest.(check bool) "at least one Unknown became Equivalent" true (!upgraded > 0));
    Alcotest.test_case "upgraded certificates still re-check" `Quick (fun () ->
        let g = Workloads.Cloudsc.build () in
        let symbols = symbols_of g in
        let memo = Analysis.Delta.create_memo () in
        let checked = ref 0 in
        List.iter
          (fun (x : Transforms.Xform.t) ->
            List.iter
              (fun site ->
                match
                  ( Analysis.Equiv.certify ~use_intervals:false ~memo ~symbols g x site,
                    Analysis.Equiv.certify ~memo ~symbols g x site )
                with
                | Some (Analysis.Equiv.Unknown _), Some (Analysis.Equiv.Equivalent cert) ->
                    incr checked;
                    Alcotest.(check bool) "certificate verifies" true
                      (Analysis.Certificate.check cert)
                | _ -> ())
              (x.Transforms.Xform.find g))
          (Transforms.Registry.all_correct ());
        Alcotest.(check bool) "exercised at least one certificate" true (!checked > 0));
  ]

(* ---- determinism and clean-corpus regressions ----------------------------- *)

let mk ~pass ~severity ~state ~container detail =
  Analysis.Report.make ~pass ~severity ~state ~container detail

let regression_tests =
  [
    Alcotest.test_case "finding order is total and deterministic" `Quick (fun () ->
        let fs =
          [
            mk ~pass:Analysis.Report.Race ~severity:Analysis.Report.Warning ~state:2
              ~container:"b" "w1";
            mk ~pass:Analysis.Report.Change_set ~severity:Analysis.Report.Error ~state:0
              ~container:"z" "e1";
            mk ~pass:Analysis.Report.Race ~severity:Analysis.Report.Error ~state:1
              ~container:"a" "e2";
            mk ~pass:Analysis.Report.Dead_write ~severity:Analysis.Report.Warning ~state:2
              ~container:"b" "w2";
          ]
        in
        let sorted = Analysis.Report.sort fs in
        Alcotest.(check bool) "errors first" true
          ((List.hd sorted).Analysis.Report.severity = Analysis.Report.Error);
        (* any permutation sorts to the same list *)
        Alcotest.(check bool) "permutation invariant" true
          (Analysis.Report.sort (List.rev fs) = sorted);
        (* exact duplicates collapse *)
        Alcotest.(check int) "duplicates removed" (List.length sorted)
          (List.length (Analysis.Report.sort (fs @ fs))));
    Alcotest.test_case "zero definite findings on every workload" `Quick (fun () ->
        List.iter
          (fun (name, g) ->
            let errors =
              List.filter
                (fun (f : Analysis.Report.finding) -> f.severity = Analysis.Report.Error)
                (Analysis.Oracle.analyze ~symbols:(symbols_of g) g)
            in
            match errors with
            | [] -> ()
            | f :: _ -> Alcotest.failf "%s: %s" name (Analysis.Report.to_string f))
          (all_workloads ()));
    Alcotest.test_case "every fixpoint converges within bounds" `Quick (fun () ->
        List.iter
          (fun (name, g) ->
            let iv = Analysis.Intervals.solve ~symbols:(symbols_of g) g in
            let lv = Analysis.Liveness.solve g in
            let rd = Analysis.Reachdef.solve g in
            List.iter
              (fun (pass, (converged, iters)) ->
                Alcotest.(check bool) (name ^ " " ^ pass ^ " converged") true converged;
                Alcotest.(check bool)
                  (Printf.sprintf "%s %s within 16 passes (took %d)" name pass iters)
                  true (iters <= 16))
              [
                ("intervals", (iv.Fx.converged, iv.Fx.iterations));
                ("liveness", (lv.Fx.converged, lv.Fx.iterations));
                ("reachdef", (rd.Fx.converged, rd.Fx.iterations));
              ])
          (all_workloads ()));
  ]

let () =
  Alcotest.run "dataflow"
    [
      ("fixpoint", fixpoint_tests);
      ("liveness", liveness_tests);
      ("reachdef", reachdef_tests);
      ("intervals", intervals_tests);
      ("audit", audit_tests);
      ("equiv-upgrade", equiv_upgrade_tests);
      ("regression", regression_tests);
    ]
