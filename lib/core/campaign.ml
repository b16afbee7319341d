type exec_status =
  | Completed
  | Timed_out of { deadline_s : float }
  | Crashed of { detail : string }

let status_name = function
  | Completed -> "completed"
  | Timed_out _ -> "timeout"
  | Crashed _ -> "crash"

type instance_result = {
  program : string;
  xform_name : string;
  site : Transforms.Xform.site;
  report : Difftest.report option;
  static : Analysis.Report.finding list;
  dep_stats : Analysis.Races.stats;
  verdict : Analysis.Equiv.verdict option;
}

type outcome_verdict =
  | O_passed
  | O_proved
  | O_failed of { klass : Difftest.failure_class; first_trial : int; failing_trials : int }
  | O_killed

type outcome = {
  o_program : string;
  o_xform : string;
  o_site : Transforms.Xform.site;
  o_status : exec_status;
  o_verdict : outcome_verdict;
  o_trials_run : int;
  o_static_flagged : bool;
  o_dep_pairs : int;
  o_dep_decided : int;
  o_dep_sampled : int;
  o_elapsed_s : float;
  o_seed : int;
}

type tally = {
  instances : int;
  passed : int;
  proved : int;
  failed : int;
  classes : (Difftest.failure_class * int) list;
  killed : int;
  static_flagged : int;
  trials : int;
  dep_pairs : int;
  dep_decided : int;
  dep_sampled : int;
}

type t = {
  rows : (string * tally) list;
  totals : tally;
  outcomes : outcome list;
  results : instance_result list;
}

(* ---------------- deterministic per-instance identity ---------------- *)

let instance_id ~program ~xform site =
  program ^ "::" ^ xform ^ "::" ^ Transforms.Xform.site_slug site

(* FNV-1a over the instance id mixed with the campaign seed: scheduling-order
   independent, so a parallel run and a serial run fuzz every instance with
   the same trial sequence. *)
let instance_seed ~global id =
  let h = ref 0x811c9dc5 in
  let mix c =
    h := !h lxor Char.code c;
    h := !h * 0x01000193 land 0x3FFFFFFF
  in
  String.iter mix (string_of_int global);
  mix ':';
  String.iter mix id;
  (* keep clear of 0: some PRNGs degenerate on a zero seed *)
  1 + (!h land 0x3FFFFFFF)

(* ---------------- the instances of a campaign ---------------- *)

type item = {
  id : string;
  program_name : string;
  program : Sdfg.Graph.t;
  xform : Transforms.Xform.t;
  site : Transforms.Xform.site;
  config : Difftest.config;
  static_gate : bool;
  certify_gate : bool;
}

let items ~limit_per ~(config : Difftest.config) ~static_gate ~certify_gate programs xforms =
  List.concat_map
    (fun (x : Transforms.Xform.t) ->
      List.concat_map
        (fun (pname, g) ->
          let sites = x.find g in
          let sites =
            match limit_per with Some n -> List.filteri (fun i _ -> i < n) sites | None -> sites
          in
          List.map
            (fun site ->
              let id = instance_id ~program:pname ~xform:x.name site in
              {
                id;
                program_name = pname;
                program = g;
                xform = x;
                site;
                config = { config with Difftest.seed = instance_seed ~global:config.seed id };
                static_gate;
                certify_gate;
              })
            sites)
        programs)
    xforms

(* ---------------- per-instance execution ---------------- *)

let run_instance ?memo ?(config = Difftest.default_config)
    ?(static_gate = false) ?(certify_gate = false) ~program:(pname, g) (x : Transforms.Xform.t)
    site =
  let symbols = config.Difftest.concretization in
  (* one application of [x] to a copy of the program serves both gates and
     the fuzz path, which fails one that gives [Error] as invalid code.
     Without the caller's memo, one for this instance still serves both
     halves of the delta and the certify gate's summaries. *)
  let applied = Transforms.Xform.apply_copy x g site in
  let memo = lazy (match memo with Some m -> m | None -> Analysis.Delta.create_memo ()) in
  let verdict, static, dep_stats =
    match applied with
    | Error _ -> (None, [], Analysis.Races.stats_zero)
    | Ok (g', declared) ->
        let delta = lazy (Analysis.Delta.between ~memo:(Lazy.force memo) ~symbols g g') in
        (* translation validation: a proved-equivalent instance skips all its
           fuzz trials (report = None); one whose copy fails validation is
           fuzzed, and the fuzz path fails it as invalid code *)
        let verdict =
          if certify_gate then
            let delta = fst (Lazy.force delta) in
            Some (Analysis.Equiv.decide ~memo:(Lazy.force memo) ~symbols ~delta g g' x site)
          else None
        in
        (* second evidence channel: what the static oracle would have said
           about this instance, independent of the fuzz verdict — the
           change-set audit (declaration honesty) alongside the delta oracle
           (introduced defects) *)
        if static_gate then
          let findings, stats = Lazy.force delta in
          let audit = Analysis.Audit.check ~original:g ~transformed:g' ~declared in
          (verdict, Analysis.Report.sort (audit @ findings), stats)
        else (verdict, [], Analysis.Races.stats_zero)
  in
  let report =
    match verdict with
    | Some (Analysis.Equiv.Equivalent _) -> None
    | _ -> Some (Difftest.test_applied ~config g x site applied)
  in
  { program = pname; xform_name = x.name; site; report; static; dep_stats; verdict }

let outcome_of_result ?(status = Completed) ?(seed = 0) ?(elapsed_s = 0.) (r : instance_result) =
  let verdict =
    match (r.verdict, r.report) with
    | Some (Analysis.Equiv.Equivalent _), _ -> O_proved
    | _, Some { Difftest.verdict = Difftest.Fail f; _ } ->
        O_failed { klass = f.klass; first_trial = f.first_trial; failing_trials = f.failing_trials }
    | _, Some { Difftest.verdict = Difftest.Pass; _ } -> O_passed
    | _, None -> O_passed
  in
  let trials, elapsed =
    match r.report with
    | Some rep -> (rep.Difftest.trials_run, rep.Difftest.elapsed_s)
    | None -> (0, elapsed_s)
  in
  {
    o_program = r.program;
    o_xform = r.xform_name;
    o_site = r.site;
    o_status = status;
    o_verdict = verdict;
    o_trials_run = trials;
    o_static_flagged = r.static <> [];
    o_dep_pairs = r.dep_stats.Analysis.Races.pairs;
    o_dep_decided = r.dep_stats.Analysis.Races.exact_disjoint + r.dep_stats.Analysis.Races.exact_overlap;
    o_dep_sampled = r.dep_stats.Analysis.Races.sampled;
    o_elapsed_s = elapsed;
    o_seed = seed;
  }

(* An instance that produced no verdict: its worker timed out or crashed, or
   (in the serial loop) an exception escaped it. *)
let killed_outcome ~program ~xform ~site ~seed status =
  {
    o_program = program;
    o_xform = xform;
    o_site = site;
    o_status = status;
    o_verdict = O_killed;
    o_trials_run = 0;
    o_static_flagged = false;
    o_dep_pairs = 0;
    o_dep_decided = 0;
    o_dep_sampled = 0;
    o_elapsed_s = (match status with Timed_out { deadline_s } -> deadline_s | _ -> 0.);
    o_seed = seed;
  }

(* ---------------- aggregation ---------------- *)

(* An instance is killed when its harness did not complete it or it has no
   verdict; every other one counts by its verdict, so each outcome lands in
   exactly one of passed, proved, failed and killed. *)
let is_killed o = o.o_status <> Completed || o.o_verdict = O_killed

let failed_as o =
  match o.o_verdict with O_failed { klass; _ } when not (is_killed o) -> Some klass | _ -> None

let tally outcomes =
  let count p = List.length (List.filter p outcomes) in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let settled v o = o.o_verdict = v && not (is_killed o) in
  {
    instances = List.length outcomes;
    passed = count (settled O_passed);
    proved = count (settled O_proved);
    failed = count (fun o -> failed_as o <> None);
    classes =
      List.map
        (fun k -> (k, count (fun o -> failed_as o = Some k)))
        [ Difftest.Semantics; Difftest.Input_dependent; Difftest.Invalid_code ];
    killed = count is_killed;
    static_flagged = count (fun o -> o.o_static_flagged);
    trials = sum (fun o -> o.o_trials_run);
    dep_pairs = sum (fun o -> o.o_dep_pairs);
    dep_decided = sum (fun o -> o.o_dep_decided);
    dep_sampled = sum (fun o -> o.o_dep_sampled);
  }

let assemble (xforms : Transforms.Xform.t list) outcomes =
  {
    rows =
      List.map
        (fun (x : Transforms.Xform.t) ->
          (x.name, tally (List.filter (fun o -> o.o_xform = x.name) outcomes)))
        xforms;
    totals = tally outcomes;
    outcomes;
    results = [];
  }

let run ?(config = Difftest.default_config) ?(limit_per = None) ?(static_gate = false)
    ?(certify_gate = false) programs xforms =
  let results = ref [] in
  (* one memo: every instance on a program shares the unchanged program's
     half of the static delta, and every state its copy did not change *)
  let memo = Analysis.Delta.create_memo () in
  let outcomes =
    List.map
      (fun it ->
        let seed = it.config.Difftest.seed in
        (* an escaping exception settles the instance as a worker settles
           it, so the serial journal matches the engine's *)
        match
          run_instance ~memo ~config:it.config ~static_gate:it.static_gate
            ~certify_gate:it.certify_gate ~program:(it.program_name, it.program) it.xform it.site
        with
        | r ->
            results := r :: !results;
            outcome_of_result ~seed r
        | exception e ->
            killed_outcome ~program:it.program_name ~xform:it.xform.name ~site:it.site ~seed
              (Crashed { detail = Printexc.to_string e }))
      (items ~limit_per ~config ~static_gate ~certify_gate programs xforms)
  in
  { (assemble xforms outcomes) with results = List.rev !results }

let class_marker = function
  | Difftest.Semantics -> "X"
  | Difftest.Input_dependent -> "/!\\"
  | Difftest.Invalid_code -> "->"

let to_table t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-42s %10s %8s %8s %8s %7s %7s  %s\n" "Transformation" "Instances" "Passed"
       "Proved" "Failed" "Killed" "Static" "Failure classes");
  Buffer.add_string buf (String.make 113 '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun (name, r) ->
      let classes =
        match List.filter (fun (_, n) -> n > 0) r.classes with
        | [] -> "-"
        | cs ->
            String.concat ", "
              (List.map (fun (c, n) -> Printf.sprintf "%s x%d" (class_marker c) n) cs)
      in
      Buffer.add_string buf
        (Printf.sprintf "%-42s %10d %8d %8d %8d %7d %7d  %s\n" name r.instances r.passed
           r.proved r.failed r.killed r.static_flagged classes))
    t.rows;
  Buffer.add_string buf (String.make 113 '-');
  Buffer.add_char buf '\n';
  let s = t.totals in
  (* a killed instance is a campaign failure too: the transformation (or the
     harness under it) hung or crashed instead of producing a verdict *)
  Buffer.add_string buf
    (Printf.sprintf
       "total: %d instances tested, %d failing (%d hung/crashed), %d proved equivalent\n"
       s.instances (s.failed + s.killed) s.killed s.proved);
  if s.dep_pairs > 0 then
    Buffer.add_string buf
      (Printf.sprintf "static evidence: %d access pairs, %d decided exactly, %d sampled\n"
         s.dep_pairs s.dep_decided s.dep_sampled);
  Buffer.contents buf
