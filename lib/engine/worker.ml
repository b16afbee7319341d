open Fuzzyflow

(* Inert since trials run one at a time; kept only because the benchmark's
   workloads and re-drive (bench/campaign) name them. *)
type batching = Inherit | Fixed of int | Auto

let auto_batch ~trials = min 64 (max 1 trials)

type options = {
  j : int;
  deadline_s : float;
  journal_path : string option;
  resume : bool;
  corpus_dir : string option;
  progress : bool;
  limit_per : int option;
  static_gate : bool;
  certify_gate : bool;
  workers : Supervisor.endpoint list;
  policy : Supervisor.policy;
  on_failure : string -> Supervisor.failure_class -> unit;
  tick : unit -> unit;
  journal_sink : (string -> unit) option;
  on_telemetry : (Telemetry.t -> unit) option;
  batching : batching;
}

let default_options =
  {
    j = 1;
    deadline_s = 60.;
    journal_path = None;
    resume = false;
    corpus_dir = None;
    progress = false;
    limit_per = None;
    static_gate = false;
    certify_gate = false;
    workers = [];
    policy = Supervisor.default_policy;
    on_failure = (fun _ _ -> ());
    tick = ignore;
    journal_sink = None;
    on_telemetry = None;
    batching = Inherit;
  }

(* Workers resolve transformations by name, the supervisor ships one graph
   per program name, and instance ids and --resume key on both names: a
   duplicate would silently run or journal the wrong thing. *)
let reject_duplicates what names =
  let rec go = function
    | a :: (b :: _ as rest) ->
        if a = b then invalid_arg (Printf.sprintf "Worker.run_campaign: duplicate %s name %s" what a)
        else go rest
    | _ -> ()
  in
  go (List.sort compare names)

let run_campaign ?(options = default_options) ?(config = Difftest.default_config) ?catalog
    programs xforms =
  reject_duplicates "program" (List.map fst programs);
  reject_duplicates "transformation" (List.map (fun (x : Transforms.Xform.t) -> x.name) xforms);
  let catalog = match catalog with Some c -> c | None -> xforms in
  let items =
    Array.of_list
      (Queue.build ~limit_per:options.limit_per ~config ~static_gate:options.static_gate
         ~certify_gate:options.certify_gate programs xforms)
  in
  let n = Array.length items in
  (* --resume: journaled outcomes are replayed, not re-fuzzed. A torn tail
     record (campaign killed mid-write) is truncated and counted; mid-file
     corruption raises [Journal.Corrupt] — resuming from it would silently
     skip or re-run work. *)
  let resumed_map, recovered_records =
    if options.resume then
      match options.journal_path with
      | Some path ->
          let { Journal.records; recovered_records } =
            Journal.load_resume
              ~warn:(fun msg -> Printf.eprintf "engine: resume: %s\n%!" msg)
              path
          in
          (match Journal.header_of records with
          | Some h when h.Journal.seed <> config.Difftest.seed ->
              invalid_arg
                (Printf.sprintf
                   "engine: journal %s was written with --seed %d; this campaign runs with %d"
                   path h.Journal.seed config.Difftest.seed)
          | _ -> ());
          (Journal.completed records, recovered_records)
      | None -> ([], 0)
    else ([], 0)
  in
  let outcomes =
    Array.map (fun (it : Queue.item) -> List.assoc_opt it.id resumed_map) items
  in
  (* the journal is rewritten from scratch even on resume: parsed outcomes are
     re-emitted in queue order, so the file is always a clean, deterministic
     prefix of the campaign (a torn tail from a kill never accumulates) *)
  let sink line = match options.journal_sink with Some f -> f line | None -> () in
  let journal_oc =
    match options.journal_path with
    | None -> None
    | Some path ->
        Corpus.mkdir_p (Filename.dirname path);
        Some (open_out path)
  in
  let emit_line line =
    (match journal_oc with
    | Some oc ->
        output_string oc line;
        output_char oc '\n'
    | None -> ());
    sink line
  in
  (match (journal_oc, options.journal_sink) with
  | None, None -> ()
  | _ ->
      emit_line
        (Journal.header_line
           {
             Journal.seed = config.Difftest.seed;
             trials = config.Difftest.trials;
             j = options.j;
             deadline_s = options.deadline_s;
             programs = List.map fst programs;
             xforms = List.map (fun (x : Transforms.Xform.t) -> x.name) xforms;
           });
      (match journal_oc with Some oc -> flush oc | None -> ()));
  let next_flush = ref 0 in
  let flush_journal () =
    if journal_oc <> None || options.journal_sink <> None then begin
      while !next_flush < n && outcomes.(!next_flush) <> None do
        (match outcomes.(!next_flush) with
        | Some o -> emit_line (Journal.instance_line o)
        | None -> ());
        incr next_flush
      done;
      match journal_oc with Some oc -> flush oc | None -> ()
    end
  in
  let telemetry =
    Telemetry.create ~progress:options.progress ~total:n
      ~j:(List.length options.workers + max 1 options.j)
      ()
  in
  Telemetry.recovered_records telemetry recovered_records;
  (match options.on_telemetry with Some f -> f telemetry | None -> ());
  Array.iter (fun o -> if o <> None then Telemetry.resumed telemetry) outcomes;
  flush_journal ();
  (* fresh work: everything the journal did not cover *)
  let fresh_idx = ref [] in
  Array.iteri (fun i o -> if o = None then fresh_idx := i :: !fresh_idx) outcomes;
  let fresh = Array.of_list (List.rev !fresh_idx) in
  let results : (int * Campaign.instance_result) list ref = ref [] in
  let on_done fi result =
    let i = fresh.(fi) in
    let it = items.(i) in
    let o =
      match result with
      | Ok (ir : Campaign.instance_result) ->
          results := (i, ir) :: !results;
          Campaign.outcome_of_result ~seed:it.Queue.config.Difftest.seed ir
      | Error status ->
          Campaign.killed_outcome ~program:it.program_name ~xform:it.xform.Transforms.Xform.name
            ~site:it.site ~seed:it.config.Difftest.seed status
    in
    outcomes.(i) <- Some o;
    (* persist the failing instance's reproduction bundle *)
    (match (options.corpus_dir, result) with
    | Some dir, Ok (ir : Campaign.instance_result) -> (
        match ir.report with
        | Some ({ Difftest.verdict = Difftest.Fail f; _ } as report) -> (
            match Testcase.of_report ~config:it.Queue.config ~original:it.program report with
            | Some tc -> (
                match
                  Corpus.save ~dir ~catalog ~program:it.program_name
                    ~xform:it.xform.Transforms.Xform.name ~klass:f.Difftest.klass ~site:it.site
                    tc
                with
                | Corpus.Saved _ -> Telemetry.case_saved telemetry
                | Corpus.Duplicate _ | Corpus.Not_reproducing -> ())
            | None -> ())
        | _ -> ())
    | _ -> ());
    Telemetry.record telemetry o;
    flush_journal ()
  in
  if fresh <> [||] then
    Supervisor.run ~policy:options.policy ~on_failure:options.on_failure ~tick:options.tick
      ~workers:options.workers ~j:options.j ~catalog:xforms ~deadline_s:options.deadline_s
      ~telemetry ~on_done
      (Array.map (fun i -> items.(i)) fresh);
  flush_journal ();
  (if journal_oc <> None || options.journal_sink <> None then
     emit_line (Journal.footer_line (Telemetry.summary telemetry)));
  (match journal_oc with Some oc -> close_out oc | None -> ());
  if options.progress then Telemetry.finish telemetry;
  let all_outcomes = Array.to_list outcomes |> List.filter_map (fun o -> o) in
  let results = List.sort compare (List.map fst !results) |> List.map (fun i -> List.assoc i !results) in
  Campaign.assemble ~results xforms all_outcomes
