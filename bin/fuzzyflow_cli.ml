(* The fuzzyflow command-line tool.

     fuzzyflow list                      -- workloads and transformations
     fuzzyflow test -w atax -x BufferTiling(wrong-schedule) [-t 20] [-s 42]
     fuzzyflow campaign [-w chain -w atax ...] [--correct] [-t 10]
                        [-j 4] [--deadline 30] [--journal c.jsonl] [--resume]
                        [--corpus corpus/] [--progress]
     fuzzyflow corpus replay corpus/    -- regression-gate saved failures
     fuzzyflow corpus list corpus/
     fuzzyflow cutout -w matmul_chain --node N --state S [-D N=8]
     fuzzyflow analyze -w atax [-D N=8] [--carried]
                                        -- static dataflow oracle findings
     fuzzyflow lint [--json] [-o lint.json] [-w atax ...]
                                        -- oracle over workloads + change-set
                                           audit over the transform catalog
     fuzzyflow certify -w scale -x MapTiling [-D N=8]
                                        -- symbolic translation validation
     fuzzyflow dot -w softmax           -- dump a workload as graphviz

   Transformations are addressed by their registry names ("fuzzyflow list"
   prints them); each site of the chosen transformation is tested. *)

open Cmdliner

let workloads () =
  Workloads.Npbench.all () @ Workloads.Npb_frontend.all ()
  @ [
      ("bert", Workloads.Bert.build ());
      ("cloudsc", Workloads.Cloudsc.build ());
      ("fig4", Workloads.Fig4.build ());
      ("sddmm", (let g, _, _ = Workloads.Sddmm.rank_program () in g));
    ]

let xform_catalog () =
  Transforms.Registry.as_shipped () @ Transforms.Registry.all_correct ()
  @ [
      Transforms.Map_tiling.make Transforms.Map_tiling.Off_by_one;
      Transforms.Map_tiling.make Transforms.Map_tiling.No_remainder;
      Transforms.Gpu_kernel_extraction.make Transforms.Gpu_kernel_extraction.Correct;
      Transforms.Gpu_kernel_extraction.make Transforms.Gpu_kernel_extraction.Full_copy_back;
      Transforms.Loop_unrolling.make Transforms.Loop_unrolling.Correct;
      Transforms.Loop_unrolling.make Transforms.Loop_unrolling.Negative_step_sign_error;
    ]
  |> List.fold_left
       (fun acc (x : Transforms.Xform.t) ->
         if List.exists (fun (y : Transforms.Xform.t) -> y.name = x.name) acc then acc
         else x :: acc)
       []
  |> List.rev

let find_workload name =
  match List.assoc_opt name (workloads ()) with
  | Some g -> g
  | None ->
      Printf.eprintf "unknown workload %s (try: fuzzyflow list)\n" name;
      exit 2

let find_xform name =
  match Transforms.Registry.by_name (xform_catalog ()) name with
  | Some x -> x
  | None ->
      Printf.eprintf "unknown transformation %s (try: fuzzyflow list)\n" name;
      exit 2

(* The Table 2 concretization: every free symbol of the NPBench and
   frontend kernels. *)
let table2_symbols = [ ("N", 8); ("T", 3); ("H", 4); ("R", 3); ("Q", 4); ("P", 3) ]

(* The symbols a workload runs on without -D: its own, by graph name, else
   the Table 2 set. *)
let default_symbols_for = function
  | "bert_encoder" -> Workloads.Bert.default_symbols
  | "cloudsc_synth" -> Workloads.Cloudsc.default_symbols
  | "sddmm_rank" -> Workloads.Sddmm.default_symbols
  | _ -> table2_symbols

(* ---------------- arguments ---------------- *)

let workload_arg =
  Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload to operate on.")

let workloads_arg =
  Arg.(value & opt_all string [] & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workloads (repeatable; default: all).")

let xform_arg =
  Arg.(required & opt (some string) None & info [ "x"; "transformation" ] ~docv:"NAME" ~doc:"Transformation to test.")

let trials_arg =
  Arg.(value & opt int 20 & info [ "t"; "trials" ] ~docv:"N" ~doc:"Fuzzing trials per instance.")

let seed_arg = Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Fuzzing seed.")

let max_size_arg =
  Arg.(value & opt int 12 & info [ "max-size" ] ~docv:"N" ~doc:"Upper bound for sampled size symbols.")

let no_min_cut_arg =
  Arg.(value & flag & info [ "no-min-cut" ] ~doc:"Disable the minimum input-flow cut.")

let defines_arg =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string int) []
    & info [ "D"; "define" ] ~docv:"SYM=VAL" ~doc:"Concretization symbol values (repeatable).")

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"DIR" ~doc:"Save failing test cases under $(docv).")

let mk_config trials seed max_size no_min_cut defines =
  {
    Fuzzyflow.Difftest.default_config with
    trials;
    seed;
    max_size;
    use_min_cut = not no_min_cut;
    concretization = defines;
  }

(* ---------------- commands ---------------- *)

let list_cmd =
  let run () =
    print_endline "workloads:";
    List.iter (fun (n, _) -> Printf.printf "  %s\n" n) (workloads ());
    print_endline "transformations:";
    List.iter (fun (x : Transforms.Xform.t) -> Printf.printf "  %s\n" x.name) (xform_catalog ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List available workloads and transformations.")
    Term.(const run $ const ())

(* A site whose test raised: printed like a report line, as [optimize]
   prints a crashed step. *)
let print_crashed (xform : Transforms.Xform.t) site e =
  Format.printf "%s @@ %a: CRASHED: %s@." xform.name Transforms.Xform.pp_site site
    (Printexc.to_string e)

let test_cmd =
  let run w x trials seed max_size no_min_cut defines save =
    let g = find_workload w in
    let xform = find_xform x in
    let defines = if defines = [] then default_symbols_for (Sdfg.Graph.name g) else defines in
    let config = mk_config trials seed max_size no_min_cut defines in
    let sites = xform.find g in
    if sites = [] then print_endline "no application sites found"
    else begin
      let failing = ref 0 in
      List.iter
        (fun site ->
          match Fuzzyflow.Difftest.test_instance ~config g xform site with
          | exception e ->
              incr failing;
              print_crashed xform site e
          | r -> (
              Format.printf "%a@." Fuzzyflow.Difftest.pp_report r;
              match r.verdict with
              | Fuzzyflow.Difftest.Pass -> ()
              | Fuzzyflow.Difftest.Fail _ -> (
                  incr failing;
                  match save with
                  | None -> ()
                  | Some dir -> (
                      match Fuzzyflow.Testcase.of_report ~config ~original:g r with
                      | Some tc ->
                          List.iter (Printf.printf "  wrote %s\n") (Fuzzyflow.Testcase.save dir tc)
                      | None -> ()))))
        sites;
      Printf.printf "%d/%d instances failing\n" !failing (List.length sites);
      if !failing > 0 then exit 1
    end
  in
  Cmd.v
    (Cmd.info "test" ~doc:"Test every instance of a transformation on a workload.")
    Term.(
      const run $ workload_arg $ xform_arg $ trials_arg $ seed_arg $ max_size_arg $ no_min_cut_arg
      $ defines_arg $ save_arg)

(* ---------------- generated programs ---------------- *)

let style_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "style" ] ~docv:"STYLE"
        ~doc:
          (Printf.sprintf "Composition style (repeatable; default: all). One of: %s."
             (String.concat ", " Gen.Styles.names)))

let resolve_styles = function
  | [] -> Gen.Styles.all
  | names ->
      List.map
        (fun n ->
          match Gen.Styles.by_name n with
          | Some s -> s
          | None ->
              Printf.eprintf "unknown style %s (one of: %s)\n" n
                (String.concat ", " Gen.Styles.names);
              exit 2)
        names

(* Admitted generated programs for one style, named so any component can
   regenerate them (Faultlab.Plan.workload_by_name resolves gen_* names). *)
let generated_programs ~style ~seed ~n =
  let admitted, _ = Gen.Admit.batch ~style ~seed ~n () in
  List.map (fun (c : Gen.Generate.t) -> (c.Gen.Generate.name, c.Gen.Generate.graph)) admitted

let generate_cmd =
  let count_arg =
    Arg.(
      value & opt int 20
      & info [ "n"; "count" ] ~docv:"N" ~doc:"Admitted candidates to produce per style.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N" ~doc:"Maximum grammar fragments per candidate.")
  in
  let emit_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit" ] ~docv:"DIR" ~doc:"Write each admitted graph to $(docv)/<name>.sdfg.")
  in
  let min_admit_arg =
    Arg.(
      value & opt float 0.
      & info [ "min-admit" ] ~docv:"RATE"
          ~doc:"Exit 1 if any style's admission rate falls below $(docv) (0..1).")
  in
  let require_targets_arg =
    Arg.(
      value & flag
      & info [ "require-targets" ]
          ~doc:
            "Exit 1 unless, per style, every targeted transformation matches at least one \
             admitted graph (the style-effectiveness floor).")
  in
  let run seed styles count budget emit min_admit require_targets =
    let budget = Option.map Gen.Grammar.budget budget in
    (match emit with
    | Some dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
    | None -> ());
    let failed = ref false in
    List.iter
      (fun (style : Gen.Styles.t) ->
        let admitted, stats = Gen.Admit.batch ?budget ~style ~seed ~n:count () in
        Format.printf "%a@." Gen.Admit.pp_stats stats;
        let matches = Hashtbl.create 8 in
        List.iter
          (fun (c : Gen.Generate.t) ->
            Printf.printf "  %s rules=%s\n" c.Gen.Generate.name
              (String.concat "," (List.map Gen.Grammar.name c.Gen.Generate.rules));
            List.iter
              (fun (x, n) ->
                Hashtbl.replace matches x (n + Option.value ~default:0 (Hashtbl.find_opt matches x)))
              (Gen.Styles.match_counts c.Gen.Generate.graph);
            match emit with
            | Some dir ->
                Sdfg.Serialize.save
                  (Filename.concat dir (c.Gen.Generate.name ^ ".sdfg"))
                  c.Gen.Generate.graph
            | None -> ())
          admitted;
        Printf.printf "  targets:";
        List.iter
          (fun t ->
            let hits = Option.value ~default:0 (Hashtbl.find_opt matches t) in
            Printf.printf " %s=%d" t hits;
            if require_targets && hits = 0 then failed := true)
          style.Gen.Styles.targets;
        print_newline ();
        let rate =
          if stats.Gen.Admit.generated = 0 then 0.
          else float_of_int stats.Gen.Admit.admitted /. float_of_int stats.Gen.Admit.generated
        in
        if rate < min_admit then begin
          Printf.printf "  admission rate %.2f below floor %.2f\n" rate min_admit;
          failed := true
        end)
      (resolve_styles styles);
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Generate seeded random SDFGs steered by composition styles; every candidate passes \
          the admission gate (structural validation + static oracle + smoke execution) \
          before it is listed or emitted.")
    Term.(
      const run $ seed_arg $ style_arg $ count_arg $ budget_arg $ emit_arg $ min_admit_arg
      $ require_targets_arg)

let campaign_cmd =
  let correct_arg =
    Arg.(value & flag & info [ "correct" ] ~doc:"Use the fixed transformation set instead of the shipped one.")
  in
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:"Skip the fuzz trials of instances the translation validator proves equivalent.")
  in
  let static_arg =
    Arg.(
      value & flag
      & info [ "static" ]
          ~doc:
            "Run the static evidence channel (change-set audit and delta oracle with the \
             exact dependence tier) on every instance; findings and decided/sampled pair \
             counts ride on the verdicts and the journal.")
  in
  let j_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Local worker processes, forked once per campaign. Verdicts are identical for any \
             $(docv) and seed.")
  in
  let deadline_arg =
    Arg.(
      value & opt float 60.
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget per instance; overruns are killed and recorded as outcomes.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE" ~doc:"Append-only JSONL journal of per-instance outcomes.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Replay outcomes already in $(b,--journal) instead of re-fuzzing them.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Persist failing test cases under $(docv), deduplicated by finding signature.")
  in
  let progress_arg =
    Arg.(value & flag & info [ "progress" ] ~doc:"Live campaign telemetry on stderr.")
  in
  let limit_per_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit-per" ] ~docv:"N"
          ~doc:"Test at most $(docv) sites per (workload, transformation) pair.")
  in
  let worker_eps_arg =
    Arg.(
      value & opt_all string []
      & info [ "worker" ] ~docv:"HOST:PORT"
          ~doc:
            "Add a remote worker to the local ones (repeatable; start one with \
             $(b,fuzzyflow worker)). Failed or dead remote workers are retried with backoff \
             and then quarantined, and the local workers finish the campaign — verdicts \
             stay identical to a local run.")
  in
  let generated_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "generated" ] ~docv:"N"
          ~doc:
            "Add $(docv) admitted generated programs per $(b,--style) (generated from the \
             campaign seed). Without $(b,-w), the campaign runs on the generated programs \
             alone.")
  in
  let run ws correct certify static trials seed max_size no_min_cut defines j deadline journal
      resume corpus progress limit_per generated styles worker_eps =
    (* one config serves every program, so no workload's own symbols *)
    let defines = if defines = [] then table2_symbols else defines in
    let config = mk_config trials seed max_size no_min_cut defines in
    let gen_programs =
      match generated with
      | None -> []
      | Some n ->
          List.concat_map
            (fun style -> generated_programs ~style ~seed ~n)
            (resolve_styles styles)
    in
    let programs =
      match (ws, gen_programs) with
      | [], [] -> workloads ()
      | [], gps -> gps
      | ws, gps -> List.map (fun w -> (w, find_workload w)) ws @ gps
    in
    let xforms =
      if correct then Transforms.Registry.all_correct () else Transforms.Registry.as_shipped ()
    in
    if resume && journal = None then begin
      prerr_endline "campaign: --resume requires --journal";
      exit 2
    end;
    let workers =
      List.map
        (fun s ->
          try Engine.Supervisor.endpoint_of_string s
          with Invalid_argument m ->
            prerr_endline ("campaign: " ^ m);
            exit 2)
        worker_eps
    in
    let engine_needed =
      j > 1 || journal <> None || corpus <> None || progress || limit_per <> None
      || workers <> []
    in
    let c =
      if engine_needed then
        let options =
          {
            Engine.Worker.default_options with
            j;
            deadline_s = deadline;
            journal_path = journal;
            resume;
            corpus_dir = corpus;
            progress;
            limit_per;
            static_gate = static;
            certify_gate = certify;
            workers;
          }
        in
        try Engine.Worker.run_campaign ~options ~config ~catalog:(xform_catalog ()) programs xforms
        with Invalid_argument m ->
          prerr_endline ("campaign: " ^ m);
          exit 2
      else Fuzzyflow.Campaign.run ~config ~static_gate:static ~certify_gate:certify programs xforms
    in
    print_string (Fuzzyflow.Campaign.to_table c)
  in
  Cmd.v
    (Cmd.info "campaign" ~doc:"Run a transformation campaign over workloads (Table 2 style).")
    Term.(
      const run $ workloads_arg $ correct_arg $ certify_arg $ static_arg $ trials_arg $ seed_arg
      $ max_size_arg $ no_min_cut_arg $ defines_arg $ j_arg $ deadline_arg $ journal_arg
      $ resume_arg $ corpus_arg
      $ progress_arg $ limit_per_arg $ generated_arg $ style_arg $ worker_eps_arg)

let corpus_dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Corpus directory.")

let corpus_list_cmd =
  let run dir =
    let entries = Engine.Corpus.entries dir in
    if entries = [] then Printf.printf "corpus %s: empty\n" dir
    else
      List.iter
        (fun (m : Engine.Corpus.meta) ->
          Format.printf "%s  %-28s %-12s %-10s @@ %a@." m.signature m.xform m.program m.klass
            Transforms.Xform.pp_site m.site)
        entries
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List corpus entries (signature, transformation, program, class, site).")
    Term.(const run $ corpus_dir_arg)

let corpus_replay_cmd =
  let run dir =
    let outcomes = Engine.Corpus.replay ~catalog:(xform_catalog ()) dir in
    if outcomes = [] then begin
      Printf.printf "corpus %s: empty\n" dir;
      exit 0
    end;
    let stale = ref 0 in
    List.iter
      (fun (o : Engine.Corpus.replay_outcome) ->
        if not o.reproduced then incr stale;
        Printf.printf "%s %s %s: %s\n"
          (if o.reproduced then "REPRODUCED" else "STALE     ")
          o.meta.Engine.Corpus.signature o.meta.Engine.Corpus.xform o.detail)
      outcomes;
    Printf.printf "%d/%d entries reproduce\n" (List.length outcomes - !stale) (List.length outcomes);
    if !stale > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay every corpus entry against the current code: re-apply the recorded \
          transformation and re-run the stored fault-inducing inputs. Exits non-zero if any \
          entry no longer reproduces.")
    Term.(const run $ corpus_dir_arg)

let corpus_cmd =
  Cmd.group
    (Cmd.info "corpus" ~doc:"Inspect and replay the persistent test-case corpus.")
    [ corpus_list_cmd; corpus_replay_cmd ]

let cutout_cmd =
  let state_arg =
    Arg.(required & opt (some int) None & info [ "state" ] ~docv:"ID" ~doc:"State id of the seed.")
  in
  let nodes_arg =
    Arg.(non_empty & opt_all int [] & info [ "node" ] ~docv:"ID" ~doc:"Seed node ids (repeatable).")
  in
  let run w state nodes defines =
    let g = find_workload w in
    let defines = if defines = [] then default_symbols_for (Sdfg.Graph.name g) else defines in
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          prerr_endline ("cutout: " ^ msg);
          exit 2)
        fmt
    in
    (match Sdfg.Graph.state_opt g state with
    | None -> fail "%s has no state %d" w state
    | Some st ->
        List.iter
          (fun n ->
            if not (Sdfg.State.has_node st n) then fail "state %d of %s has no node %d" state w n)
          nodes);
    let cut, (cut', stats) =
      try
        let cut =
          Fuzzyflow.Cutout.extract_dataflow ~options:{ Fuzzyflow.Cutout.symbols = defines } g
            ~state ~nodes
        in
        (cut, Fuzzyflow.Min_cut.minimize g cut ~symbols:defines)
      with Symbolic.Expr.Unbound_symbol s -> fail "unbound symbol %s (bind it with -D %s=VALUE)" s s
    in
    Format.printf "%a@." Fuzzyflow.Cutout.pp cut;
    Printf.printf "min input-flow cut: %d -> %d elements; inputs {%s}\n" stats.original_elements
      stats.minimized_elements
      (String.concat ", " cut'.input_config)
  in
  Cmd.v
    (Cmd.info "cutout" ~doc:"Extract and minimize a cutout around given nodes.")
    Term.(const run $ workload_arg $ state_arg $ nodes_arg $ defines_arg)

let analyze_cmd =
  let carried_arg =
    Arg.(
      value & flag
      & info [ "carried" ]
          ~doc:"Also report sequential loop-carried dependences (intended in many programs).")
  in
  let run w defines carried =
    let g = find_workload w in
    let symbols =
      let base = if defines = [] then default_symbols_for (Sdfg.Graph.name g) else defines in
      List.filter (fun (s, _) -> List.mem s (Sdfg.Graph.all_free_syms g)) base
    in
    match Analysis.Oracle.analyze ~carried ~symbols g with
    | [] ->
        Printf.printf "%s: no findings (symbols: %s)\n" w
          (String.concat ", " (List.map (fun (s, v) -> Printf.sprintf "%s=%d" s v) symbols))
    | findings ->
        let errors =
          List.length
            (List.filter
               (fun (f : Analysis.Report.finding) -> f.severity = Analysis.Report.Error)
               findings)
        in
        Printf.printf "%s: %d finding(s), %d definite\n" w (List.length findings) errors;
        List.iter (fun f -> Format.printf "  %a@." Analysis.Report.pp f) findings;
        (* CI-gate semantics: warnings inform, only definite findings fail *)
        if errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static dataflow oracle (races, out-of-bounds, def-use, liveness, reaching \
          definitions) on a workload. Exits non-zero only on definite (error-severity) findings, \
          so warnings never break a CI gate.")
    Term.(const run $ workload_arg $ defines_arg $ carried_arg)

(* ---- lint: whole-suite static health check ------------------------------- *)

module Json = Engine.Journal.Json

let finding_json extra (f : Analysis.Report.finding) =
  Json.Obj
    (extra
    @ [
        ("pass", Json.Str (Analysis.Report.pass_name f.Analysis.Report.pass));
        ("severity", Json.Str (Analysis.Report.severity_name f.Analysis.Report.severity));
        ("state", Json.Num (float_of_int f.Analysis.Report.state));
        ("node", Json.Num (float_of_int f.Analysis.Report.node));
        ("container", Json.Str f.Analysis.Report.container);
        ("subsets", Json.Arr (List.map (fun s -> Json.Str s) f.Analysis.Report.subsets));
        ("detail", Json.Str f.Analysis.Report.detail);
      ])

let lint_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the machine-readable JSON report on stdout.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Also write the JSON report to $(docv).")
  in
  let run ws json out defines =
    let programs =
      match ws with [] -> workloads () | ws -> List.map (fun w -> (w, find_workload w)) ws
    in
    (* dataflow oracle over every selected workload *)
    let oracle_rows =
      List.map
        (fun (name, g) ->
          let symbols =
            let base = if defines = [] then default_symbols_for (Sdfg.Graph.name g) else defines in
            List.filter (fun (s, _) -> List.mem s (Sdfg.Graph.all_free_syms g)) base
          in
          (name, Analysis.Oracle.analyze ~symbols g))
        programs
    in
    (* interstate dataflow passes and the exact dependence tier, surfaced
       individually: the oracle already folds their findings in, but the raw
       per-pass view (dead containers, dead writes, reaching-definition
       findings, decided-pair counters, coverage notes) is what a lint
       consumer wants to drill into *)
    let dataflow_rows =
      List.map
        (fun (name, g) ->
          let symbols =
            let base = if defines = [] then default_symbols_for (Sdfg.Graph.name g) else defines in
            List.filter (fun (s, _) -> List.mem s (Sdfg.Graph.all_free_syms g)) base
          in
          let dead_containers =
            match Analysis.Liveness.dead_containers g with l -> l | exception _ -> []
          in
          let dead_writes =
            match Analysis.Liveness.dead_writes g with l -> l | exception _ -> []
          in
          let reachdef = match Analysis.Reachdef.check g with l -> l | exception _ -> [] in
          let stats =
            match Analysis.Oracle.analyze_stats ~carried:true ~symbols g with
            | _, s -> s
            | exception _ -> Analysis.Races.stats_zero
          in
          let coverage =
            match Analysis.Defuse.check_coverage ~symbols g with l -> l | exception _ -> []
          in
          (name, dead_containers, dead_writes, reachdef, stats, coverage))
        programs
    in
    (* change-set audit over every (workload, transformation, site) instance of
       the registry catalog: each declaration must cover its true diff *)
    let xforms =
      Transforms.Registry.as_shipped () @ Transforms.Registry.all_correct ()
      |> List.fold_left
           (fun acc (x : Transforms.Xform.t) ->
             if List.exists (fun (y : Transforms.Xform.t) -> y.name = x.name) acc then acc
             else x :: acc)
           []
      |> List.rev
    in
    let audit_instances = ref 0 in
    let audit_rows =
      List.concat_map
        (fun (pname, g) ->
          List.concat_map
            (fun (x : Transforms.Xform.t) ->
              List.filter_map
                (fun site ->
                  match Analysis.Audit.check_xform g x site with
                  | None -> None
                  | Some fs ->
                      incr audit_instances;
                      if fs = [] then None else Some (pname, x.name, site, fs))
                (x.find g))
            xforms)
        programs
    in
    let all_findings =
      List.concat_map snd oracle_rows @ List.concat_map (fun (_, _, _, fs) -> fs) audit_rows
    in
    let count sev =
      List.length
        (List.filter (fun (f : Analysis.Report.finding) -> f.severity = sev) all_findings)
    in
    let errors = count Analysis.Report.Error and warnings = count Analysis.Report.Warning in
    let report =
      Json.Obj
        [
          ("kind", Json.Str "lint");
          ("workloads", Json.Num (float_of_int (List.length programs)));
          ("transform_instances", Json.Num (float_of_int !audit_instances));
          ("errors", Json.Num (float_of_int errors));
          ("warnings", Json.Num (float_of_int warnings));
          ( "oracle",
            Json.Arr
              (List.filter_map
                 (fun (name, fs) ->
                   if fs = [] then None
                   else
                     Some
                       (Json.Obj
                          [
                            ("workload", Json.Str name);
                            ("findings", Json.Arr (List.map (finding_json []) fs));
                          ]))
                 oracle_rows) );
          ( "dataflow",
            Json.Arr
              (List.map
                 (fun (name, dc, dw, rd, (s : Analysis.Races.stats), cov) ->
                   Json.Obj
                     [
                       ("workload", Json.Str name);
                       ("dead_containers", Json.Arr (List.map (fun c -> Json.Str c) dc));
                       ( "dead_writes",
                         Json.Arr
                           (List.map
                              (fun (sid, c) ->
                                Json.Obj
                                  [
                                    ("state", Json.Num (float_of_int sid));
                                    ("container", Json.Str c);
                                  ])
                              dw) );
                       ("reachdef", Json.Arr (List.map (finding_json []) rd));
                       ( "deps",
                         Json.Obj
                           [
                             ("pairs", Json.Num (float_of_int s.Analysis.Races.pairs));
                             ( "exact_disjoint",
                               Json.Num (float_of_int s.Analysis.Races.exact_disjoint) );
                             ( "exact_overlap",
                               Json.Num (float_of_int s.Analysis.Races.exact_overlap) );
                             ("sampled", Json.Num (float_of_int s.Analysis.Races.sampled));
                           ] );
                       ("coverage_notes", Json.Arr (List.map (finding_json []) cov));
                     ])
                 dataflow_rows) );
          ( "audit",
            Json.Arr
              (List.map
                 (fun (pname, xname, site, fs) ->
                   Json.Obj
                     [
                       ("workload", Json.Str pname);
                       ("transformation", Json.Str xname);
                       ("site", Json.Str (Transforms.Xform.site_slug site));
                       ("findings", Json.Arr (List.map (finding_json []) fs));
                     ])
                 audit_rows) );
        ]
    in
    (match out with
    | Some path ->
        let oc = open_out path in
        output_string oc (Json.to_string report);
        output_char oc '\n';
        close_out oc
    | None -> ());
    if json then print_endline (Json.to_string report)
    else begin
      List.iter
        (fun (name, fs) ->
          if fs = [] then Printf.printf "%-20s clean\n" name
          else begin
            Printf.printf "%-20s %d finding(s)\n" name (List.length fs);
            List.iter (fun f -> Format.printf "  %a@." Analysis.Report.pp f) fs
          end)
        oracle_rows;
      List.iter
        (fun (name, dc, dw, rd, (s : Analysis.Races.stats), cov) ->
          if dc <> [] || dw <> [] || rd <> [] || s.Analysis.Races.pairs > 0 || cov <> [] then
            Printf.printf
              "%-20s dataflow: %d dead container(s), %d dead write(s), %d reachdef, deps \
               %d/%d decided, %d coverage note(s)\n"
              name (List.length dc) (List.length dw) (List.length rd)
              (s.Analysis.Races.exact_disjoint + s.Analysis.Races.exact_overlap)
              s.Analysis.Races.pairs (List.length cov))
        dataflow_rows;
      Printf.printf "change-set audit: %d instance(s), %d under-declared\n" !audit_instances
        (List.length audit_rows);
      List.iter
        (fun (pname, xname, site, fs) ->
          Format.printf "  %s :: %s @@ %a@." pname xname Transforms.Xform.pp_site site;
          List.iter (fun f -> Format.printf "    %a@." Analysis.Report.pp f) fs)
        audit_rows;
      Printf.printf "lint: %d error(s), %d warning(s)\n" errors warnings
    end;
    if errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static health check of the whole suite: the dataflow oracle over every workload plus \
          the change-set audit over every transformation instance. Exits non-zero only on \
          definite (error-severity) findings.")
    Term.(const run $ workloads_arg $ json_arg $ out_arg $ defines_arg)

let certify_cmd =
  let run w x defines =
    let g = find_workload w in
    let xform = find_xform x in
    let symbols =
      let base = if defines = [] then default_symbols_for (Sdfg.Graph.name g) else defines in
      List.filter (fun (s, _) -> List.mem s (Sdfg.Graph.all_free_syms g)) base
    in
    let sites = xform.find g in
    if sites = [] then begin
      print_endline "no application sites found";
      exit 1
    end;
    let equivalent = ref 0 and refuted = ref 0 and unknown = ref 0 in
    let memo = Analysis.Delta.create_memo () in
    List.iter
      (fun site ->
        Format.printf "%s @@ %a: " xform.Transforms.Xform.name Transforms.Xform.pp_site site;
        match Analysis.Equiv.certify ~memo ~symbols g xform site with
        | None ->
            incr unknown;
            Format.printf "stale (site no longer applies)@."
        | Some v ->
            (match v with
            | Analysis.Equiv.Equivalent _ -> incr equivalent
            | Analysis.Equiv.Refuted _ -> incr refuted
            | Analysis.Equiv.Unknown _ -> incr unknown);
            Format.printf "%a@." Analysis.Equiv.pp_verdict v)
      sites;
    Printf.printf "%d equivalent, %d refuted, %d unknown of %d site(s)\n" !equivalent !refuted
      !unknown (List.length sites);
    if !refuted > 0 then exit 2 else if !equivalent = List.length sites then exit 0 else exit 1
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Symbolic translation validation: prove each instance dataflow-equivalent (exit 0), \
          refute it with a witness valuation (exit 2), or report unknown (exit 1).")
    Term.(const run $ workload_arg $ xform_arg $ defines_arg)

let optimize_cmd =
  let run w trials seed max_size no_min_cut defines correct static =
    let g = find_workload w in
    let defines = if defines = [] then default_symbols_for (Sdfg.Graph.name g) else defines in
    let config = mk_config trials seed max_size no_min_cut defines in
    let xforms =
      if correct then Transforms.Registry.all_correct () else Transforms.Registry.as_shipped ()
    in
    let optimized, log = Fuzzyflow.Pipeline.optimize ~config ~static_gate:static g xforms in
    Format.printf "%a" Fuzzyflow.Pipeline.pp_log log;
    match Sdfg.Validate.check optimized with
    | [] -> print_endline "optimized program valid"
    | e :: _ -> Format.printf "optimized program INVALID: %a@." Sdfg.Validate.pp_error e
  in
  let correct_arg =
    Cmdliner.Arg.(value & flag & info [ "correct" ] ~doc:"Use the fixed transformation set.")
  in
  let static_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "static" ]
          ~doc:"Pre-gate every instance with the static dataflow oracle before fuzzing.")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Guarded optimization: test each instance, apply only passing ones.")
    Term.(
      const run $ workload_arg $ trials_arg $ seed_arg $ max_size_arg $ no_min_cut_arg
      $ defines_arg $ correct_arg $ static_arg)

let localize_cmd =
  let run w x trials seed max_size no_min_cut defines =
    let g = find_workload w in
    let xform = find_xform x in
    let defines = if defines = [] then default_symbols_for (Sdfg.Graph.name g) else defines in
    let config = mk_config trials seed max_size no_min_cut defines in
    List.iter
      (fun site ->
        match Fuzzyflow.Difftest.test_instance ~config g xform site with
        | exception e -> print_crashed xform site e
        | { verdict = Fuzzyflow.Difftest.Pass; _ } -> ()
        | { verdict = Fuzzyflow.Difftest.Fail _; _ } as r -> (
            Format.printf "%a@." Fuzzyflow.Difftest.pp_report r;
            match Fuzzyflow.Localize.of_report ~config ~original:g ~xform r with
            | exception e -> print_crashed xform site e
            | Some ds when ds <> [] ->
                List.iteri
                  (fun i d ->
                    if i < 5 then
                      Format.printf "  %s %a@."
                        (if i = 0 then "first divergence:" else "then:            ")
                        Fuzzyflow.Localize.pp_divergence d)
                  ds
            | _ -> print_endline "  (no localization available)"))
      (xform.find g)
  in
  Cmd.v
    (Cmd.info "localize"
       ~doc:"Test a transformation and point at where along the dataflow values diverge.")
    Term.(
      const run $ workload_arg $ xform_arg $ trials_arg $ seed_arg $ max_size_arg $ no_min_cut_arg
      $ defines_arg)

let selfcheck_cmd =
  let j_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Supervised worker processes that run the interpreter and transform probes. The \
             report is byte-identical for any $(docv).")
  in
  let deadline_arg =
    Arg.(
      value & opt float 60.
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget per interpreter or transform probe. Probes that time out or \
             crash are retried with doubled deadlines, then quarantined. MPI and net probes \
             run in this process, without a deadline.")
  in
  let trials_arg =
    Arg.(
      value & opt int 10
      & info [ "trials" ] ~docv:"N" ~doc:"Fuzzing trials per differential-test probe.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Campaign seed.")
  in
  let floor_arg =
    Arg.(
      value & opt float 0.95
      & info [ "floor" ] ~docv:"RATE"
          ~doc:"Minimum detection rate over interpreter + transform faults; below it, exit 1.")
  in
  let require_semantics_arg =
    Arg.(
      value & flag
      & info [ "require-semantics" ]
          ~doc:"Additionally require every Semantics-class injection to be detected.")
  in
  let require_deps_arg =
    Arg.(
      value & flag
      & info [ "require-deps" ]
          ~doc:
            "Additionally require every subset-shift and wrong-stride mutation to be caught \
             by the exact dependence tier with a witness that reproduces dynamically as a \
             directed fuzz seed.")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE" ~doc:"Write the deterministic JSONL report to $(docv).")
  in
  let level_arg =
    Arg.(
      value
      & opt (some (enum [ ("interp", Faultlab.Plan.L_interp); ("transform", Faultlab.Plan.L_transform); ("mpi", Faultlab.Plan.L_mpi); ("net", Faultlab.Plan.L_net) ])) None
      & info [ "level" ] ~docv:"LEVEL"
          ~doc:"Restrict the catalog to one injection level: interp, transform, mpi or net.")
  in
  let progress_arg =
    Arg.(value & flag & info [ "progress" ] ~doc:"Live per-spec telemetry on stderr.")
  in
  let generated_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "generated" ] ~docv:"N"
          ~doc:
            "Extend the catalog with transform mutations over the first $(docv) admitted \
             generated programs of $(b,--style) (default mixed) at the campaign seed — the \
             generator as a selfcheck subject.")
  in
  let run j deadline trials seed floor require_semantics require_deps report_path level
      progress generated_n styles =
    let generated =
      match generated_n with
      | None -> None
      | Some n -> (
          match styles with
          | [] -> Some ("mixed", n)
          | [ s ] when Gen.Styles.by_name s <> None -> Some (s, n)
          | [ s ] ->
              Printf.eprintf "unknown style %s (one of: %s)\n" s
                (String.concat ", " Gen.Styles.names);
              exit 2
          | _ ->
              prerr_endline "selfcheck: --generated takes a single --style";
              exit 2)
    in
    let r =
      Faultlab.Selfcheck.run ~j ~deadline_s:deadline ~trials ?level ?generated ~progress ~seed ()
    in
    print_string (Faultlab.Selfcheck.render r);
    (match report_path with
    | Some path ->
        let oc = open_out path in
        output_string oc (Faultlab.Selfcheck.to_jsonl r);
        close_out oc;
        Printf.printf "report written to %s\n" path
    | None -> ());
    if not (Faultlab.Selfcheck.passed ~floor ~require_semantics ~require_deps r) then exit 1
  in
  Cmd.v
    (Cmd.info "selfcheck"
       ~doc:
         "Inject known faults at every level and verify the oracles catch them (the \
          fault-injection lab).")
    Term.(
      const run $ j_arg $ deadline_arg $ trials_arg $ seed_arg $ floor_arg $ require_semantics_arg
      $ require_deps_arg $ report_arg $ level_arg $ progress_arg $ generated_arg $ style_arg)

(* ---------------- distributed campaign service ---------------- *)

let port_arg ?(default = 0) names doc =
  Arg.(value & opt int default & info names ~docv:"PORT" ~doc)

let worker_cmd =
  let run port once =
    let sock, actual = Engine.Supervisor.listen_on ~port () in
    Printf.printf "worker: listening on 127.0.0.1:%d\n%!" actual;
    Engine.Supervisor.serve_worker ~once ~catalog:(xform_catalog ()) sock
  in
  let once_arg =
    Arg.(value & flag & info [ "once" ] ~doc:"Exit after the first connection closes.")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run a remote campaign worker: accept assignments from a dispatcher, run each \
          in-process under its deadline with a static-delta memo kept across \
          assignments (the same code a local $(b,-j) worker runs), and reply with the verdict.")
    Term.(const run $ port_arg [ "port" ] "Listen on $(docv) (0 picks an ephemeral port)." $ once_arg)

let serve_cmd =
  let workers_arg =
    Arg.(
      value & opt_all string []
      & info [ "worker" ] ~docv:"HOST:PORT" ~doc:"Dispatch to this worker (repeatable).")
  in
  let journal_dir_arg =
    Arg.(
      value & opt string "_service"
      & info [ "journal-dir" ] ~docv:"DIR" ~doc:"Campaign journals land here.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Persist failing test cases under $(docv).")
  in
  let j_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Local worker processes per campaign, alongside the remote $(b,--worker)s.")
  in
  let deadline_arg =
    Arg.(
      value & opt float 60.
      & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Wall-clock budget per instance.")
  in
  let max_campaigns_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-campaigns" ] ~docv:"N" ~doc:"Exit after $(docv) submissions (smoke tests).")
  in
  let run port http workers journal_dir corpus j deadline max_campaigns =
    let workers =
      List.map
        (fun s ->
          try Engine.Supervisor.endpoint_of_string s
          with Invalid_argument m ->
            prerr_endline ("serve: " ^ m);
            exit 2)
        workers
    in
    let config =
      {
        Engine.Service.default_config with
        port;
        http_port = (if http < 0 then None else Some http);
        workers;
        journal_dir;
        corpus_dir = corpus;
        j;
        deadline_s = deadline;
        max_campaigns;
      }
    in
    Engine.Service.serve ~config
      ~resolve:(fun name ->
        match List.assoc_opt name (workloads ()) with
        | Some g -> Some g
        | None -> (
            try Some (Faultlab.Plan.workload_by_name name) with _ -> None))
      ~catalog_of:(fun correct ->
        if correct then Transforms.Registry.all_correct () else Transforms.Registry.as_shipped ())
      ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign daemon: accept submissions, dispatch instances to local and \
          remote workers with crash-tolerant supervision, stream journals back, and expose \
          live telemetry over HTTP.")
    Term.(
      const run
      $ port_arg ~default:7400 [ "port" ] "Control port for submissions (0: ephemeral)."
      $ port_arg ~default:(-1) [ "http" ] "HTTP telemetry port (0: ephemeral; omit to disable)."
      $ workers_arg $ journal_dir_arg $ corpus_arg $ j_arg $ deadline_arg $ max_campaigns_arg)

let submit_cmd =
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Service host.")
  in
  let correct_arg =
    Arg.(value & flag & info [ "correct" ] ~doc:"Use the fixed transformation set.")
  in
  let certify_arg =
    Arg.(value & flag & info [ "certify" ] ~doc:"Skip fuzzing of proven-equivalent instances.")
  in
  let static_arg =
    Arg.(value & flag & info [ "static" ] ~doc:"Run the static evidence channel.")
  in
  let limit_per_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit-per" ] ~docv:"N" ~doc:"At most $(docv) sites per (workload, transformation).")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Do not echo streamed journal lines.")
  in
  let shutdown_arg =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the service to exit instead of submitting.")
  in
  let run host port ws correct certify static trials seed max_size defines limit_per quiet
      shutdown =
    if shutdown then begin
      if Engine.Service.shutdown ~host ~port then print_endline "service: shutdown acknowledged"
      else begin
        prerr_endline "submit: service did not acknowledge shutdown";
        exit 1
      end
    end
    else begin
      let ws = if ws = [] then List.map fst (workloads ()) else ws in
      (* as [campaign]: one config serves every program *)
      let defines = if defines = [] then table2_symbols else defines in
      let sub =
        {
          Engine.Wire.s_workloads = ws;
          s_correct = correct;
          s_trials = trials;
          s_seed = seed;
          s_max_size = max_size;
          s_defines = defines;
          s_limit_per = limit_per;
          s_static_gate = static;
          s_certify_gate = certify;
        }
      in
      let on_line l = if not quiet then print_endline l in
      match Engine.Service.submit ~host ~port ~on_line sub with
      | Ok (Some table) -> print_string table
      | Ok None -> ()
      | Error detail ->
          prerr_endline ("submit: " ^ detail);
          exit 1
    end
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a campaign to a running service and stream its journal; print the Table 2 \
          summary when it completes.")
    Term.(
      const run $ host_arg
      $ port_arg ~default:7400 [ "port" ] "Service control port."
      $ workloads_arg $ correct_arg $ certify_arg $ static_arg $ trials_arg $ seed_arg
      $ max_size_arg $ defines_arg $ limit_per_arg $ quiet_arg $ shutdown_arg)

let dot_cmd =
  let run w =
    let g = find_workload w in
    print_string (Sdfg.Dot.to_dot g)
  in
  Cmd.v (Cmd.info "dot" ~doc:"Print a workload's dataflow graph as graphviz.")
    Term.(const run $ workload_arg)

let () =
  let info = Cmd.info "fuzzyflow" ~version:"1.0.0" ~doc:"Localized optimization testing with dataflow cutouts." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            test_cmd;
            generate_cmd;
            campaign_cmd;
            corpus_cmd;
            cutout_cmd;
            analyze_cmd;
            lint_cmd;
            certify_cmd;
            optimize_cmd;
            localize_cmd;
            selfcheck_cmd;
            serve_cmd;
            worker_cmd;
            submit_cmd;
            dot_cmd;
          ]))
