open Fuzzyflow

type failure = Timed_out of { deadline_s : float } | Crashed of { detail : string }

(* ---------------- the probe pool: fork/reap protocol ---------------- *)

(* Results travel through a per-child temp file rather than a pipe: a
   marshalled result can exceed the pipe buffer, and a child blocked on a
   full pipe until its deadline would be misreported as a hang. *)

type child = {
  pid : int;
  tmp : string;
  started : float;
  c_idx : int;
  mutable killed : bool;
}

let spawn f idx =
  let tmp = Filename.temp_file "fuzzyflow-worker" ".result" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* child: compute, persist, _exit — never run the parent's at_exit
         handlers or flush its duplicated channel buffers *)
      let result =
        try Ok (f ()) with e -> Error (Printexc.to_string e)
      in
      (try
         let oc = open_out_bin tmp in
         Marshal.to_channel oc result [];
         close_out oc
       with _ -> ());
      Unix._exit 0
  | pid -> { pid; tmp; started = Unix.gettimeofday (); c_idx = idx; killed = false }

(* A child's result file can be absent (the child died before its write, or
   the write itself failed) or corrupt (truncated or garbled by a killed
   write — Marshal raises on a bad header or short payload). Both are
   per-child outcomes, never exceptions: one damaged file must not abort the
   campaign around it. *)
let read_result tmp =
  let v =
    match open_in_bin tmp with
    | ic ->
        let v =
          (* the temp file is pre-created empty at spawn, so a child that died
             before its write leaves zero bytes: that's a missing result, not
             a torn one *)
          if in_channel_length ic = 0 then `Missing
          else
            match Marshal.from_channel ic with
            | v -> `Result v
            | exception _ -> `Corrupt
        in
        close_in_noerr ic;
        v
    | exception _ -> `Missing
  in
  (try Sys.remove tmp with _ -> ());
  v

let settle ~deadline_s child status =
  if child.killed then Error (Timed_out { deadline_s })
  else
    match status with
    | Unix.WEXITED 0 -> (
        match read_result child.tmp with
        | `Result (Ok v) -> Ok v
        | `Result (Error detail) -> Error (Crashed { detail })
        | `Missing -> Error (Crashed { detail = "worker exited without reporting a result" })
        | `Corrupt -> Error (Crashed { detail = "worker result file corrupt (torn write?)" }))
    | Unix.WEXITED n ->
        ignore (read_result child.tmp);
        Error (Crashed { detail = Printf.sprintf "worker exited with code %d" n })
    | Unix.WSIGNALED s | Unix.WSTOPPED s ->
        ignore (read_result child.tmp);
        Error (Crashed { detail = Printf.sprintf "worker killed by signal %d" s })

let map_pool ~j ~deadline_s ?on_done thunks =
  let n = Array.length thunks in
  let j = max 1 j in
  let results = Array.make n None in
  (* Sleep-wait reaping via the self-pipe trick: a SIGCHLD handler writes a
     byte to a non-blocking pipe and the loop selects on it, with the timeout
     bounded by the nearest child deadline. An idle pool sleeps instead of
     burning a core, a child exit wakes the loop immediately (a signal
     between the waitpid sweep and the select leaves its byte in the pipe,
     so the wakeup is never lost), and deadline kills keep their precision
     because the select never outsleeps the next deadline. *)
  let rp, wp = Unix.pipe () in
  Unix.set_nonblock rp;
  Unix.set_nonblock wp;
  let prev_sigchld =
    Sys.signal Sys.sigchld
      (Sys.Signal_handle
         (fun _ -> try ignore (Unix.write wp (Bytes.make 1 '\000') 0 1) with _ -> ()))
  in
  let drain () =
    let buf = Bytes.create 64 in
    try
      while Unix.read rp buf 0 64 > 0 do
        ()
      done
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  Fun.protect ~finally:(fun () ->
      Sys.set_signal Sys.sigchld prev_sigchld;
      (try Unix.close rp with Unix.Unix_error _ -> ());
      try Unix.close wp with Unix.Unix_error _ -> ())
  @@ fun () ->
  let running = ref [] in
  let next = ref 0 in
  while !next < n || !running <> [] do
    while !next < n && List.length !running < j do
      let c = spawn thunks.(!next) !next in
      running := c :: !running;
      incr next
    done;
    let still = ref [] in
    List.iter
      (fun c ->
        match Unix.waitpid [ Unix.WNOHANG ] c.pid with
        | 0, _ ->
            if (not c.killed) && Unix.gettimeofday () -. c.started > deadline_s then begin
              (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
              c.killed <- true
            end;
            still := c :: !still
        | _, status ->
            let r = settle ~deadline_s c status in
            results.(c.c_idx) <- Some r;
            (match on_done with Some f -> f c.c_idx r | None -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> still := c :: !still)
      !running;
    running := !still;
    if !running <> [] then begin
      let now = Unix.gettimeofday () in
      let next_deadline =
        List.fold_left
          (fun acc c -> if c.killed then acc else Float.min acc (c.started +. deadline_s))
          infinity !running
      in
      (* killed children have no deadline left to honor; cap the sleep as a
         safety net against a lost signal either way *)
      let tmo = Float.max 0. (Float.min (next_deadline -. now) 0.5) in
      match Unix.select [ rp ] [] [] tmo with
      | [ _ ], _, _ -> drain ()
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  Array.map Option.get results

let supervise ~deadline_s f = (map_pool ~j:1 ~deadline_s [| f |]).(0)

(* ---------------- the campaign driver ---------------- *)

(* How the trial loop's batch width is chosen. [Auto] derives it from the
   per-instance trial budget: wide enough to amortize instruction dispatch,
   capped so one sweep's buffers stay cache-resident. *)
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
  (* resolve the batch width once: it flows into every assignment through
     the one config value, and verdicts are width-oblivious, so this cannot
     perturb journals *)
  let config =
    match options.batching with
    | Inherit -> config
    | Fixed b -> { config with Difftest.batch = max 1 b }
    | Auto -> { config with Difftest.batch = auto_batch ~trials:config.Difftest.trials }
  in
  let items =
    Array.of_list (Queue.build ~limit_per:options.limit_per ~seed:config.Difftest.seed programs xforms)
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
          Campaign.outcome_of_result ~seed:it.Queue.seed ir
      | Error status ->
          Campaign.killed_outcome ~program:it.program_name ~xform:it.xform.Transforms.Xform.name
            ~site:it.site ~seed:it.seed status
    in
    outcomes.(i) <- Some o;
    (* persist the failing instance's reproduction bundle *)
    (match (options.corpus_dir, result) with
    | Some dir, Ok (ir : Campaign.instance_result) -> (
        match ir.report with
        | Some ({ Difftest.verdict = Difftest.Fail f; _ } as report) -> (
            let config = { config with Difftest.seed = it.Queue.seed } in
            match Testcase.of_report ~config ~original:it.program report with
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
      ~workers:options.workers ~j:options.j ~catalog:xforms ~config
      ~static_gate:options.static_gate ~certify_gate:options.certify_gate
      ~deadline_s:options.deadline_s ~telemetry ~on_done
      (Array.map (fun i -> items.(i)) fresh);
  flush_journal ();
  (if journal_oc <> None || options.journal_sink <> None then
     emit_line (Journal.footer_line (Telemetry.summary telemetry)));
  (match journal_oc with Some oc -> close_out oc | None -> ());
  if options.progress then Telemetry.finish telemetry;
  let all_outcomes = Array.to_list outcomes |> List.filter_map (fun o -> o) in
  let results = List.sort compare (List.map fst !results) |> List.map (fun i -> List.assoc i !results) in
  Campaign.assemble ~results xforms all_outcomes
