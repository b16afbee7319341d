(* The campaign benchmark of record.

     main.exe [--seed 42] [--seconds S] [--trace 0|1] [--compare FILE]
       runs every workload, each in a fresh child process, and writes
       bench/campaign/results/{campaign-<time>,latest}.json
     main.exe --workload NAME --seed N --seconds S --trace 0|1
       runs one workload in this process

   With --trace 0 a workload is set up several times and then run through
   the program's entry points, untraced, for about --seconds in all, with a
   host speed probe timed between the runs; it prints the end-to-end
   metrics, whose times are scaled to the probe's nominal host speed (see
   probe.ml). With --trace 1 it is run twice untraced
   (the first pass warms the process up) and once re-driven stage by stage
   with spans, and prints the per-layer metrics.
   Both check the verdicts; the last line of standard output is one JSON
   object {correct, attempted, failed, metrics}. Run from the repository
   root: the committed digests and BENCHMARK.json are read from there. *)

open Fuzzyflow
module Json = Engine.Journal.Json

let results_dir = "bench/campaign/results"

(* The seed whose outcome digests are committed in digests.json. *)
let committed_seed = 42

(* [failed] counts the instances the engine killed (timed out or
   crashed); a run with problems reports [correct = false]. *)
type result = { correct : bool; attempted : int; failed : int; records : Record.t list }

let result_line ~name_of r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (r : Record.t) ->
                  (name_of r, Json.Obj [ ("value", Json.Num r.median); ("unit", Json.Str r.unit) ]))
                r.records) );
       ])

let print_records =
  List.iter (fun (r : Record.t) ->
      Printf.printf "  %-28s %14.6g %-6s%s\n" r.metric r.median r.unit
        (if r.reps > 1 then Printf.sprintf " (median of %d)" r.reps else ""))


let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.value ~default:0.

let committed_digest ~digests ~smoke workload =
  match Json.of_string (Record.read_file digests) with
  | j ->
      Option.bind (Json.mem j (if smoke then "smoke" else "full")) (fun d -> Json.mem d workload)
      |> Option.map Json.str
  | exception Sys_error _ -> None

(* The first outcome where [actual] departs from the program's. *)
let differs ~what expected actual =
  let lines = List.map Engine.Journal.instance_line in
  let rec first = function
    | a :: r, b :: s ->
        if a = b then first (r, s)
        else
          Some
            (Printf.sprintf "%s differs from the program:\n  program: %s\n  %s: %s" what a what b)
    | [], [] -> None
    | _ -> Some (what ^ " settled a different number of instances than the program")
  in
  first (lines expected, lines actual)

(* Checks on the program's outcomes, one problem per line: every run of a
   campaign gives the same digest ([rep_digests] holds one list per
   campaign), and the committed digest matches at the committed seed (at
   every seed for a workload that does not follow it). At other seeds the
   re-drive is the check. *)
let check_outcomes ~(w : Suite.t) ~smoke ~seed ~digests ~rep_digests outcomes =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let digest = Suite.digest outcomes in
  if List.exists (function d :: r -> List.exists (( <> ) d) r | [] -> false) rep_digests then
    problem "outcomes differ between repetitions";
  if seed = committed_seed || not w.follows_seed then begin
    match committed_digest ~digests ~smoke w.name with
    | Some c when c = digest -> ()
    | Some c -> problem "outcome digest %s differs from the committed %s" digest c
    | None -> problem "no committed digest for %s in %s" w.name digests
  end;
  Printf.printf "%s: seed %d%s, %d instances per repetition, outcome digest %s\n" w.name seed
    (if w.follows_seed then "" else " (inputs fixed)")
    (List.length outcomes) digest;
  List.rev !problems

(* Set up repeatedly and keep every set-up time, over the compute probe's
   slowness around it (a sample is taken before each set-up): the median is
   the metric. Set-up can take well under a millisecond, so it is repeated
   in five bursts of at least five set-ups and a fifth of a second, 0.6 s
   apart (the smoke slices set up five times). Each set-up starts from an
   empty minor heap, or the times fall into two groups, with and without
   paying for the previous set-ups' garbage, and the median jumps between
   them from run to run. A full major collection would do that too, but on
   OCaml 5.1 it leaves the campaign after it with a much larger heap. The
   README gives the measurements. *)
let setup (w : Suite.t) ~smoke ~seed =
  let bursts, burst_s, pause_s = if smoke then (1, 0., 0.) else (5, 0.2, 0.6) in
  let probe = Probe.create Probe.Compute in
  let spec = ref None and times = ref [] in
  for burst = 1 to bursts do
    if burst > 1 then Unix.sleepf pause_s;
    let start = Trace.now () and n = ref 0 in
    while !n < 5 || (!n < 2000 && Trace.now () -. start < burst_s) do
      Probe.sample probe;
      Gc.minor ();
      let t0 = Trace.now () in
      spec := Some (w.build ~smoke ~seed);
      times := (t0, Trace.now ()) :: !times;
      incr n
    done
  done;
  (Option.get !spec, List.map (fun (t0, t1) -> (t1 -. t0) /. Probe.slowness probe ~t0 ~t1) !times)

(* After the measured repetitions, every [sample_every]-th instance is
   re-driven stage by stage and must settle exactly as the program did: the
   check that holds at any seed, not only at the committed one. *)
let sample_every = 8

(* Every run of one campaign of the spec: the first run's outcomes, and
   each run's outcome digest and start and end time, latest first. *)
type runs = {
  outcomes : Campaign.outcome list;
  mutable digests : string list;
  mutable times : (float * float) list;
  mutable killed : int;
}

let duration (t0, t1) = t1 -. t0

(* A campaign's wall-clock time: the median over its runs. *)
let wall r = Record.median (List.map duration r.times)

(* A campaign's time at the probe's nominal host speed: the median over its
   runs of each run's time over the probe's slowness around it. *)
let scaled probe r =
  Record.median (List.map (fun (t0, t1) -> (t1 -. t0) /. Probe.slowness probe ~t0 ~t1) r.times)

(* Runs the spec's campaigns untraced: all of them once, then round-robin
   again while the next one and the sampled re-drive after the last (about
   an eighth of a pass) are expected to end by [until], so a run lasts about
   --seconds, set-up included, whatever the length of one campaign. The
   probe is sampled between the runs, at most every 50 ms, and once after
   the last. Returns the peak RSS read right after the first pass, and the
   runs of each campaign. Only the first pass's outcomes are kept, so
   neither the memory nor the peak depends on the number of passes. *)
let repeat spec ~probe ~work ~until =
  let run ?runs c =
    Probe.sample_now_and_then probe;
    let t0 = Trace.now () in
    let outcomes = Suite.run_campaign ~work spec c in
    let t1 = Trace.now () in
    let r =
      match runs with
      | Some r -> r
      | None -> { outcomes; digests = []; times = []; killed = 0 }
    in
    r.digests <- Suite.digest outcomes :: r.digests;
    r.times <- (t0, t1) :: r.times;
    r.killed <- r.killed + List.length (List.filter Suite.is_killed outcomes);
    r
  in
  let campaigns = Array.of_list (Suite.campaigns spec) in
  let runs = Array.map (fun c -> run c) campaigns in
  let peak = peak_rss_mb () in
  let redrive = Array.fold_left (fun s r -> s +. wall r) 0. runs /. float_of_int sample_every in
  let rec again i =
    let runs = runs.(i) in
    if Trace.now () +. duration (List.hd runs.times) +. redrive <= until then begin
      ignore (run ~runs campaigns.(i));
      again ((i + 1) mod Array.length campaigns)
    end
  in
  again 0;
  Probe.sample probe;
  (peak, Array.to_list runs)

(* The engine forks a worker per instance; the serial workloads compute in
   this process. *)
let probe_kind (spec : Suite.spec) =
  match spec.mode with Suite.Serial _ -> Probe.Compute | Suite.Engine _ -> Probe.Fork

let untraced (w : Suite.t) ~smoke ~seed ~seconds ~work ~digests ~git_rev =
  let until = Trace.now () +. seconds in
  let spec, setups = setup w ~smoke ~seed in
  let probe = Probe.create (probe_kind spec) in
  let peak_rss_mb, runs = repeat spec ~probe ~work ~until in
  let outcomes = List.concat_map (fun r -> r.outcomes) runs in
  let sampled i = i mod sample_every = 0 in
  Suite.fresh_dir work;
  let redriven = Redrive.run ~keep:sampled (Trace.create ()) spec ~work in
  Suite.rm_rf work;
  let problems =
    check_outcomes ~w ~smoke ~seed ~digests
      ~rep_digests:(List.map (fun r -> r.digests) runs)
      outcomes
    @ Option.to_list
        (differs ~what:"sampled re-drive" (List.filteri (fun i _ -> sampled i) outcomes) redriven)
  in
  let counts = List.map (fun r -> List.length r.times) runs in
  let instances = float_of_int (List.length outcomes) in
  let sum f = List.fold_left (fun s r -> s +. f r) 0. runs in
  Printf.printf "  %d campaigns, each run %d to %d times\n" (List.length runs)
    (List.fold_left min max_int counts) (List.fold_left max 0 counts);
  Printf.printf "  host %.3f times as slow as nominal by the %s probe; %.6g inst/s by the wall-clock\n"
    (Probe.overall probe)
    (match probe.kind with Probe.Compute -> "compute" | Probe.Fork -> "fork")
    (instances /. sum wall);
  let series =
    [
      ("instances_per_s", "inst/s", [ instances /. sum (scaled probe) ]);
      ("setup_s", "s", setups);
      ("peak_rss_mb", "MB", [ peak_rss_mb ]);
    ]
  in
  let records =
    List.map
      (fun (metric, unit, values) ->
        Record.make ~workload:w.name ~seed ~git_rev ~metric ~unit values)
      series
  in
  print_records records;
  let count f = List.fold_left (fun n r -> n + f r) 0 runs in
  ( problems,
    {
      correct = problems = [];
      attempted = count (fun r -> List.length r.outcomes * List.length r.times);
      failed = count (fun r -> r.killed);
      records;
    } )

let traced (w : Suite.t) ~smoke ~seed ~work ~digests ~spans_file ~git_rev =
  let t0 = Trace.now () in
  let spec = w.build ~smoke ~seed in
  let setup_s = Trace.now () -. t0 in
  (* untraced, twice. The first pass warms the process (heap growth, lazily
     built tables) and is discarded, so that the second starts in the state
     the re-drive after it starts in. The second gives the verdicts the
     re-drive must reproduce, the wall-clock the overheads are taken
     against, and the first failing verdict. *)
  let warmup_digest = Suite.digest (Suite.run ~work spec) in
  Gc.compact ();
  let first_fail = ref None in
  let start = Trace.now () in
  let seen_failure () = if !first_fail = None then first_fail := Some (Trace.now () -. start) in
  let journal_sink line =
    match Engine.Journal.parse_line line with
    | Engine.Journal.Instance { o_verdict = Campaign.O_failed _; _ } -> seen_failure ()
    | _ -> ()
  in
  let on_campaign =
    List.iter (fun (o : Campaign.outcome) ->
        match o.o_verdict with Campaign.O_failed _ -> seen_failure () | _ -> ())
  in
  let untraced = Suite.run ~journal_sink ~on_campaign ~work spec in
  let untraced_wall_s = Trace.now () -. start in
  (* the engine's reap loop allocates a timing-dependent amount; start the
     re-drive from an empty minor heap so the allocation counts repeat *)
  Gc.compact ();
  Suite.fresh_dir work;
  let tr = Trace.create () in
  let redriven = Redrive.run tr spec ~work in
  Suite.rm_rf work;
  let problems =
    check_outcomes ~w ~smoke ~seed ~digests
      ~rep_digests:[ [ warmup_digest; Suite.digest untraced ] ]
      untraced
    @ Option.to_list (differs ~what:"traced re-drive" untraced redriven)
  in
  let spans = Trace.spans tr in
  Trace.write_jsonl spans_file spans;
  let metrics, tail_pct =
    Layers.derive
      {
        Layers.spans;
        trace = tr;
        j = (match spec.mode with Suite.Engine { j } -> j | Suite.Serial _ -> 1);
        untraced_wall_s;
        untraced_elapsed_s =
          List.fold_left (fun a (o : Campaign.outcome) -> a +. o.o_elapsed_s) 0. untraced;
        first_fail_s = Option.value ~default:untraced_wall_s !first_fail;
        setup_s;
        admit_s = spec.admit_s;
        admitted = spec.admitted;
      }
  in
  Printf.printf "  %d spans written to %s\n" (List.length spans) spans_file;
  print_endline "  layer self time (share of traced campaign wall-clock):";
  List.iter
    (fun (name, time, share) ->
      if share >= 0.001 then Printf.printf "    %-26s %10.4f s %6.1f%%\n" name time (100. *. share))
    (Layers.breakdown spans);
  let records =
    List.map
      (fun (m : Layers.metric) ->
        Record.make ~workload:w.name ~seed ~git_rev ~metric:m.name ~unit:m.unit [ m.value ])
      metrics
  in
  print_records records;
  Printf.printf "  instance.ms_tail is the p%.1f instance time\n" tail_pct;
  ( problems,
    {
      correct = problems = [];
      attempted = List.length untraced;
      failed = List.length (List.filter Suite.is_killed untraced);
      records;
    } )

let records_file ~out name = Filename.concat out ("records-" ^ name ^ ".json")

(* One workload in this process. *)
let run_one (w : Suite.t) ~smoke ~seed ~seconds ~trace ~out ~digests =
  let git_rev = Record.git_rev () in
  let work = Filename.concat out ("work-" ^ w.name) in
  let problems, r =
    if trace then
      let spans_file = Filename.concat out ("spans-" ^ w.name ^ ".jsonl") in
      traced w ~smoke ~seed ~work ~digests ~spans_file ~git_rev
    else untraced w ~smoke ~seed ~seconds ~work ~digests ~git_rev
  in
  List.iter (Printf.printf "FAIL %s: %s\n" w.name) problems;
  Record.save (records_file ~out w.name) r.records;
  r

(* Every named workload, each in a fresh child process of this executable. *)
let run_children names ~smoke ~seed ~seconds ~trace ~out ~digests =
  List.map
    (fun name ->
      let args =
        [
          Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
          "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
          "--out"; out; "--digests"; digests;
        ]
        @ if smoke then [ "--smoke" ] else []
      in
      let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
      let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
      let status = Unix.close_process_in ic in
      let rev = List.rev lines in
      List.iter print_endline (List.rev (List.tl rev));
      let last = Json.of_string (List.hd rev) in
      {
        correct = status = Unix.WEXITED 0 && Json.bool (Json.field last "correct");
        attempted = Json.int (Json.field last "attempted");
        failed = Json.int (Json.field last "failed");
        records = Record.load (records_file ~out name);
      })
    names

let timestamp () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ" (t.tm_year + 1900) (t.tm_mon + 1) t.tm_mday t.tm_hour
    t.tm_min t.tm_sec

let main workload seed seconds trace compare smoke out digests =
  Suite.mkdir_p (Filename.concat out "tmp");
  (* the engine's fork pool hands results back through temp files *)
  Filename.set_temp_dir_name (Filename.concat out "tmp");
  let name_of, result =
    match workload with
    | Some name ->
        ( (fun (r : Record.t) -> r.metric),
          run_one (Option.get (Suite.by_name name)) ~smoke ~seed ~seconds ~trace ~out ~digests )
    | None ->
        let results =
          run_children
            (List.map (fun (w : Suite.t) -> w.name) Suite.all)
            ~smoke ~seed ~seconds ~trace ~out ~digests
        in
        let records = List.concat_map (fun r -> r.records) results in
        if not smoke then begin
          Suite.mkdir_p results_dir;
          let kind = if trace then "trace" else "campaign" in
          let save name = Record.save (Filename.concat results_dir name) records in
          save (Printf.sprintf "%s-%s.json" kind (timestamp ()));
          save (if trace then "latest-trace.json" else "latest.json")
        end;
        ( (fun (r : Record.t) -> r.workload ^ "." ^ r.metric),
          {
            correct = List.for_all (fun r -> r.correct) results;
            attempted = List.fold_left (fun n r -> n + r.attempted) 0 results;
            failed = List.fold_left (fun n r -> n + r.failed) 0 results;
            records;
          } )
  in
  let regressions =
    match compare with
    | None -> 0
    | Some file ->
        Record.compare ~bounds:(Record.bounds "BENCHMARK.json") ~baseline:(Record.load file)
          result.records
  in
  print_endline (result_line ~name_of result);
  if result.correct && regressions = 0 then 0 else 1

open Cmdliner

let cmd =
  let workload =
    Arg.(
      value
      & opt (some (enum (List.map (fun (w : Suite.t) -> (w.name, w.name)) Suite.all))) None
      & info [ "workload" ] ~docv:"NAME" ~doc:"Run only this workload, in this process.")
  in
  let seed =
    Arg.(value & opt int committed_seed & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")
  in
  let seconds =
    Arg.(
      value & opt float 0.
      & info [ "seconds" ] ~docv:"S"
          ~doc:
            "Repeat the untraced campaign while the next repetition is expected to end within \
             $(docv) seconds of the start, set-up included (at least once).")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1" ~doc:"1: re-drive traced and print the per-layer metrics.")
  in
  let compare =
    Arg.(
      value
      & opt (some file) None
      & info [ "compare" ] ~docv:"FILE"
          ~doc:
            "Print each metric's change against the records in $(docv) and the bounds in \
             BENCHMARK.json.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ] ~doc:"Run a reduced slice of each workload (for the test).")
  in
  let out =
    Arg.(
      value
      & opt string "bench/campaign/_out"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for spans, per-workload records and scratch files.")
  in
  let digests =
    Arg.(
      value
      & opt string "bench/campaign/digests.json"
      & info [ "digests" ] ~docv:"FILE" ~doc:"The committed outcome digests of the committed seed.")
  in
  Cmd.v
    (Cmd.info "campaign-bench" ~doc:"End-to-end and per-layer campaign benchmark.")
    Term.(const main $ workload $ seed $ seconds $ trace $ compare $ smoke $ out $ digests)

let () = exit (Cmd.eval' cmd)
