(* The traced run: the workload's instances re-driven stage by stage from
   outside the program, with a span around every call into a layer.

   The re-drive follows [Campaign.run_instance] and [Difftest.test_instance]
   call for call (and [Trials] follows the trial loop), so its outcomes must
   equal the untraced run's; the caller checks that they do. For the engine
   workload it does serially, in queue order, what the engine splits between
   worker and parent: the instance body with fresh caches, then the
   parent's corpus save and journal line. *)

open Fuzzyflow

let apply_to_copy tr g (x : Transforms.Xform.t) site =
  Trace.with_span tr "transforms.apply" (fun () ->
      let g' = Sdfg.Graph.copy g in
      match x.apply g' site with
      | cs -> Ok (g', cs)
      | exception Transforms.Xform.Cannot_apply msg -> Error msg
      | exception Failure msg -> Error msg
      | exception Invalid_argument msg -> Error msg
      | exception Not_found -> Error "transformation failed with Not_found")

let invalid_report ~(x : Transforms.Xform.t) ~site ~cut ~t0 msg =
  {
    Difftest.xform_name = x.name;
    site;
    verdict =
      Difftest.Fail
        {
          klass = Difftest.Invalid_code;
          first_trial = 0;
          failing_trials = 0;
          kind = Difftest.Invalid_transformed msg;
          symbols = [];
        };
    cutout = cut;
    min_cut_stats = None;
    shrink_stats = None;
    trials_run = 0;
    elapsed_s = Unix.gettimeofday () -. t0;
  }

let test_instance tr caches ~(config : Difftest.config) g (x : Transforms.Xform.t) site =
  Trace.with_span tr "difftest" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  match apply_to_copy tr g x site with
  | Error msg ->
      let cut =
        {
          Cutout.program = Sdfg.Graph.create "empty";
          kind = Cutout.Dataflow { state = -1; nodes = [] };
          input_config = [];
          system_state = [];
          free_symbols = [];
        }
      in
      invalid_report ~x ~site ~cut ~t0 msg
  | Ok (_, cs) -> (
      let symbols = config.concretization in
      let cut =
        Trace.with_span tr "cutout.extract" (fun () ->
            Cutout.extract ~options:{ Cutout.symbols } g cs)
      in
      let cut, stats =
        Trace.with_span tr "min_cut.minimize" (fun () -> Min_cut.minimize g cut ~symbols)
      in
      Trace.add tr "min_cut.original_elements" (float_of_int stats.Min_cut.original_elements);
      Trace.add tr "min_cut.minimized_elements" (float_of_int stats.Min_cut.minimized_elements);
      match apply_to_copy tr cut.program x site with
      | Error msg -> invalid_report ~x ~site ~cut ~t0 msg
      | Ok (transformed, _) -> (
          match Trace.with_span tr "validate.check" (fun () -> Sdfg.Validate.check transformed) with
          | e :: _ ->
              invalid_report ~x ~site ~cut ~t0 (Format.asprintf "%a" Sdfg.Validate.pp_error e)
          | [] ->
              let original_reads, transformed_reads =
                Trace.with_span tr "cutout.extract" (fun () ->
                    (Cutout.program_reads cut.program, Cutout.program_reads transformed))
              in
              let extra_inputs =
                List.filter
                  (fun c ->
                    (not (List.mem c cut.input_config))
                    && (not (List.mem c original_reads))
                    &&
                    match Sdfg.Graph.container_opt transformed c with
                    | Some d -> not d.transient
                    | None -> false)
                  transformed_reads
              in
              let cut =
                {
                  cut with
                  Cutout.input_config = List.sort compare (cut.input_config @ extra_inputs);
                }
              in
              let constraints =
                Trace.with_span tr "constraints.derive" (fun () ->
                    Constraints.derive ~max_size:config.max_size ~custom:config.custom_constraints
                      ~original:g cut)
              in
              let verdict =
                Trials.run tr caches ~config ~constraints ~cut ~original_prog:cut.program
                  ~transformed_prog:transformed
              in
              {
                Difftest.xform_name = x.name;
                site;
                verdict;
                cutout = cut;
                min_cut_stats = Some stats;
                shrink_stats = None;
                trials_run = config.trials;
                elapsed_s = Unix.gettimeofday () -. t0;
              }))

let run_instance tr caches ~(config : Difftest.config) ~static_gate ~certify_gate
    ~program:(pname, g) (x : Transforms.Xform.t) site =
  let verdict =
    if certify_gate then begin
      let v =
        Trace.with_span tr "equiv.certify" (fun () ->
            Analysis.Equiv.certify ~symbols:config.concretization g x site)
      in
      Trace.add tr "equiv.certified" 1.;
      (match v with
      | Some (Analysis.Equiv.Equivalent _) -> Trace.add tr "equiv.equivalent" 1.
      | _ -> ());
      v
    end
    else None
  in
  let report =
    match verdict with
    | Some (Analysis.Equiv.Equivalent _) -> None
    | _ -> Some (test_instance tr caches ~config g x site)
  in
  let static, dep_stats =
    if static_gate then begin
      let audit =
        Trace.with_span tr "audit.check" (fun () ->
            Option.value ~default:[] (Analysis.Audit.check_xform g x site))
      in
      let delta, stats =
        Trace.with_span tr "delta.verify" (fun () ->
            match Analysis.Delta.verify_stats ~symbols:config.concretization g x site with
            | Some (fs, st) -> (fs, st)
            | None -> ([], Analysis.Races.stats_zero))
      in
      Trace.add tr "delta.dep_pairs" (float_of_int stats.Analysis.Races.pairs);
      Trace.add tr "delta.decided"
        (float_of_int (stats.Analysis.Races.exact_disjoint + stats.Analysis.Races.exact_overlap));
      (Analysis.Report.sort (audit @ delta), stats)
    end
    else ([], Analysis.Races.stats_zero)
  in
  { Campaign.program = pname; xform_name = x.name; site; report; static; dep_stats; verdict }

(* What the engine's parent does with a settled instance: save a failing
   case to the corpus, then journal the outcome. *)
let engine_parent tr (spec : Suite.spec) ~corpus ~config ~program:(pname, g)
    (x : Transforms.Xform.t) site (r : Campaign.instance_result) o =
  (match r.report with
  | Some ({ Difftest.verdict = Difftest.Fail f; _ } as report) ->
      Trace.with_span tr "corpus.save" (fun () ->
          match Testcase.of_report ~config ~original:g report with
          | Some tc -> (
              Trace.add tr "corpus.attempts" 1.;
              match
                Engine.Corpus.save ~dir:corpus ~catalog:spec.catalog ~program:pname ~xform:x.name
                  ~klass:f.Difftest.klass ~site tc
              with
              | Engine.Corpus.Saved _ -> Trace.add tr "corpus.saves" 1.
              | Engine.Corpus.Duplicate _ | Engine.Corpus.Not_reproducing -> ())
          | None -> ())
  | _ -> ());
  let line = Trace.with_span tr "journal.encode" (fun () -> Engine.Journal.instance_line o) in
  Trace.add tr "journal.bytes" (float_of_int (String.length line + 1))

let campaign tr (spec : Suite.spec) ~work ~keep ~next_index { Suite.seed; programs; xforms } =
  Trace.with_span tr "campaign" @@ fun () ->
  let config = { spec.config with Difftest.seed } in
  let static_gate, certify_gate, config, shared =
    match spec.mode with
    | Suite.Serial { static_gate; certify_gate } ->
        (static_gate, certify_gate, config, Some (Trials.campaign_caches ()))
    | Suite.Engine _ ->
        (* the engine resolves [Auto] batching into the config it hands out *)
        let batch = Engine.Worker.auto_batch ~trials:config.Difftest.trials in
        (false, false, { config with Difftest.batch }, None)
  in
  let corpus = Filename.concat work "corpus" in
  let instance index ~program:(pname, g) (x : Transforms.Xform.t) site =
    Trace.set_instance tr index;
    let id = Campaign.instance_id ~program:pname ~xform:x.name site in
    let config = { config with Difftest.seed = Campaign.instance_seed ~global:seed id } in
    let r =
      Trace.with_span tr "instance" (fun () ->
          let caches = match shared with Some c -> c | None -> Trials.instance_caches () in
          run_instance tr caches ~config ~static_gate ~certify_gate ~program:(pname, g) x site)
    in
    let o = Campaign.outcome_of_result ~seed:config.Difftest.seed r in
    if shared = None then engine_parent tr spec ~corpus ~config ~program:(pname, g) x site r o;
    Trace.set_instance tr (-1);
    o
  in
  let outcomes = ref [] in
  List.iter
    (fun (x : Transforms.Xform.t) ->
      List.iter
        (fun program ->
          let sites = Trace.with_span tr "transforms.find" (fun () -> x.find (snd program)) in
          let sites = match spec.limit_per with Some n -> Suite.take n sites | None -> sites in
          List.iter
            (fun site ->
              let index = !next_index in
              incr next_index;
              if keep index then outcomes := instance index ~program x site :: !outcomes)
            sites)
        programs)
    xforms;
  List.rev !outcomes

(* Re-drives the instances whose queue index (counted across the spec's
   campaigns) satisfies [keep], and returns their outcomes in queue order. *)
let run ?(keep = fun _ -> true) tr spec ~work =
  let next_index = ref 0 in
  List.concat_map (campaign tr spec ~work ~keep ~next_index) (Suite.campaigns spec)
