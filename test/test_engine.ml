(* The campaign engine: journal round-trips, supervised workers and their
   deadlines, seed determinism across worker counts, resume, and the corpus
   regression gate. *)

open Fuzzyflow

let temp_dir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Unix.mkdir f 0o755;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let config =
  { Difftest.default_config with trials = 5; max_size = 8; concretization = [ ("N", 8) ] }

(* A journal's records, read as a resume reads them but left unrepaired. *)
let records ?warn path =
  (Engine.Journal.load_resume ?warn ~repair:false path).Engine.Journal.records

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let replace_once s ~from ~into =
  let n = String.length s and m = String.length from in
  let rec go i = if i + m > n then None else if String.sub s i m = from then Some i else go (i + 1) in
  match go 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ into ^ String.sub s (i + m) (n - i - m)

let good () = Transforms.Map_tiling.make ~tile_size:4 Transforms.Map_tiling.Correct
let bad () = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible

let programs () =
  [ ("scale", Workloads.Npbench.scale ()); ("axpy", Workloads.Npbench.axpy ()) ]

(* ---------------- journal ---------------- *)

let sample_site = Transforms.Xform.dataflow_site ~state:0 ~nodes:[ 1; 3 ] ~descr:"tile \"x\""

let sample_outcome verdict status =
  {
    Campaign.o_program = "scale";
    o_xform = "MapTiling";
    o_site = sample_site;
    o_status = status;
    o_verdict = verdict;
    o_trials_run = 5;
    o_static_flagged = false;
    o_dep_pairs = 2;
    o_dep_decided = 2;
    o_dep_sampled = 0;
    o_elapsed_s = 0.;
    o_seed = 12345;
  }

let journal_tests =
  [
    Alcotest.test_case "json round-trips nesting and escapes" `Quick (fun () ->
        let open Engine.Journal.Json in
        let v =
          Obj
            [
              ("s", Str "a\"b\\c\nd\tt");
              ("n", Num 3.);
              ("f", Num 0.25);
              ("b", Bool true);
              ("z", Null);
              ("a", Arr [ Num 1.; Str "x"; Obj [ ("k", Bool false) ] ]);
            ]
        in
        Alcotest.(check bool) "round-trip" true (of_string (to_string v) = v);
        Alcotest.(check bool) "rejects garbage" true
          (match of_string "{\"a\": }" with _ -> false | exception _ -> true));
    Alcotest.test_case "every record kind round-trips through parse_line" `Quick (fun () ->
        let h =
          {
            Engine.Journal.seed = 42;
            trials = 5;
            j = 4;
            deadline_s = 30.;
            programs = [ "scale"; "axpy" ];
            xforms = [ "MapTiling" ];
          }
        in
        Alcotest.(check bool) "header" true
          (Engine.Journal.parse_line (Engine.Journal.header_line h) = Engine.Journal.Header h);
        let f =
          {
            Engine.Journal.total = 4;
            failed = 2;
            proved = 0;
            killed = 1;
            trials_spent = 15;
            wall_s = 1.5;
            instances_per_s = 2.6666;
            retries = 3;
            quarantined = 1;
            worker_lost = 2;
            recovered_records = 1;
          }
        in
        Alcotest.(check bool) "footer" true
          (Engine.Journal.parse_line (Engine.Journal.footer_line f) = Engine.Journal.Footer f);
        List.iter
          (fun o ->
            match Engine.Journal.parse_line (Engine.Journal.instance_line o) with
            | Engine.Journal.Instance o' ->
                Alcotest.(check bool) "instance" true (o' = o)
            | _ -> Alcotest.fail "not an instance record")
          [
            sample_outcome Campaign.O_passed Campaign.Completed;
            sample_outcome Campaign.O_proved Campaign.Completed;
            sample_outcome
              (Campaign.O_failed
                 { klass = Difftest.Input_dependent; first_trial = 2; failing_trials = 3 })
              Campaign.Completed;
            sample_outcome Campaign.O_killed (Campaign.Timed_out { deadline_s = 30. });
            sample_outcome Campaign.O_killed (Campaign.Crashed { detail = "signal 11" });
          ]);
    Alcotest.test_case "load drops a torn tail" `Quick (fun () ->
        let path = Filename.temp_file "ffjournal" ".jsonl" in
        let oc = open_out path in
        output_string oc
          (Engine.Journal.header_line
             {
               Engine.Journal.seed = 1;
               trials = 1;
               j = 1;
               deadline_s = 1.;
               programs = [];
               xforms = [];
             });
        output_char oc '\n';
        output_string oc
          (Engine.Journal.instance_line (sample_outcome Campaign.O_passed Campaign.Completed));
        output_char oc '\n';
        output_string oc "{\"type\":\"instance\",\"id\":\"torn";
        close_out oc;
        let records = records path in
        Sys.remove path;
        Alcotest.(check int) "two clean records" 2 (List.length records);
        Alcotest.(check int) "one completed" 1 (List.length (Engine.Journal.completed records)));
    Alcotest.test_case "load of a missing journal is empty" `Quick (fun () ->
        Alcotest.(check int) "empty" 0
          (List.length (records "/nonexistent/journal.jsonl")));
    Alcotest.test_case "a torn tail is reported through warn" `Quick (fun () ->
        let path = Filename.temp_file "ffjournal" ".jsonl" in
        let oc = open_out path in
        output_string oc
          (Engine.Journal.instance_line (sample_outcome Campaign.O_passed Campaign.Completed));
        output_char oc '\n';
        output_string oc "{\"type\":\"instance\",\"id\":\"torn-mid-wri";
        close_out oc;
        let bytes () = In_channel.with_open_bin path In_channel.input_all in
        let before = bytes () in
        let warnings = ref [] in
        let records = records ~warn:(fun m -> warnings := m :: !warnings) path in
        let after = bytes () in
        Sys.remove path;
        Alcotest.(check int) "clean record kept" 1 (List.length records);
        Alcotest.(check string) "an unrepaired load leaves the file as it was" before after;
        Alcotest.(check int) "one warning" 1 (List.length !warnings);
        let w = List.hd !warnings in
        Alcotest.(check bool) "warning names the file" true (contains w path);
        Alcotest.(check bool) "warning carries the line number" true (contains w ":2:");
        Alcotest.(check bool) "warning says the record is ignored" true
          (contains w "ignoring torn tail record");
        Alcotest.(check bool) "warning previews the torn line" true (contains w "torn-mid-wri"));
    Alcotest.test_case "load_resume repairs a torn tail and counts the recovery" `Quick
      (fun () ->
        let path = Filename.temp_file "ffresume" ".jsonl" in
        let oc = open_out path in
        output_string oc
          (Engine.Journal.instance_line (sample_outcome Campaign.O_passed Campaign.Completed));
        output_char oc '\n';
        output_string oc
          (Engine.Journal.instance_line (sample_outcome Campaign.O_proved Campaign.Completed));
        output_char oc '\n';
        output_string oc "{\"type\":\"instance\",\"id\":\"torn";
        close_out oc;
        let warnings = ref [] in
        let loaded = Engine.Journal.load_resume ~warn:(fun m -> warnings := m :: !warnings) path in
        Alcotest.(check int) "clean records kept" 2 (List.length loaded.Engine.Journal.records);
        Alcotest.(check int) "tear counted" 1 loaded.Engine.Journal.recovered_records;
        Alcotest.(check bool) "warning says the record is truncated" true
          (List.exists (fun w -> contains w "truncating torn tail record") !warnings);
        (* repair truncated the torn record on disk: a second load is clean *)
        let again = Engine.Journal.load_resume path in
        Sys.remove path;
        Alcotest.(check int) "repaired on disk" 0 again.Engine.Journal.recovered_records;
        Alcotest.(check int) "records stable" 2 (List.length again.Engine.Journal.records));
    Alcotest.test_case "load_resume refuses mid-file corruption with a typed error" `Quick
      (fun () ->
        let path = Filename.temp_file "ffcorrupt" ".jsonl" in
        let oc = open_out path in
        output_string oc "{\"type\":\"instance\",\"id\":\"damaged-in-place\n";
        output_string oc
          (Engine.Journal.instance_line (sample_outcome Campaign.O_passed Campaign.Completed));
        output_char oc '\n';
        close_out oc;
        (match Engine.Journal.load_resume path with
        | _ -> Alcotest.fail "mid-file corruption accepted"
        | exception Engine.Journal.Corrupt { lineno; path = p; _ } ->
            Alcotest.(check int) "corrupt line identified" 1 lineno;
            Alcotest.(check string) "path carried" path p);
        Sys.remove path);
    Alcotest.test_case "a footer carrying the retired degraded flag still parses" `Quick
      (fun () ->
        let line =
          {|{"type":"footer","total":4,"failed":1,"proved":0,"killed":0,"trials_spent":20,"wall_s":0.5,"instances_per_s":8,"retries":2,"quarantined":1,"worker_lost":0,"degraded":true,"recovered_records":0}|}
        in
        match Engine.Journal.parse_line line with
        | Engine.Journal.Footer f ->
            Alcotest.(check int) "total" 4 f.Engine.Journal.total;
            Alcotest.(check int) "quarantined" 1 f.Engine.Journal.quarantined
        | _ -> Alcotest.fail "not a footer record");
  ]

(* ---------------- engine campaigns ---------------- *)

let verdict_key (o : Campaign.outcome) =
  (o.o_program, o.o_xform, Transforms.Xform.site_slug o.o_site, o.o_verdict, o.o_seed)

let is_instance_line l = String.length l >= 18 && String.sub l 0 18 = {|{"type":"instance"|}

(* Runs a campaign over [programs ()]; returns its journal's instance lines
   in order and the footer counters. *)
let journaled ?(options = Engine.Worker.default_options) xforms =
  let lines = ref [] and handle = ref None in
  ignore
    (Engine.Worker.run_campaign
       ~options:
         {
           options with
           journal_sink = Some (fun l -> if is_instance_line l then lines := l :: !lines);
           on_telemetry = Some (fun t -> handle := Some t);
         }
       ~config (programs ()) xforms);
  match !handle with
  | Some t -> (List.rev !lines, Engine.Telemetry.summary t)
  | None -> Alcotest.fail "telemetry handle never arrived"

(* One site, whose application never returns. *)
let hang () =
  {
    Transforms.Xform.name = "Hang(test-only)";
    find = (fun _ -> [ Transforms.Xform.dataflow_site ~state:0 ~nodes:[ 1 ] ~descr:"hang" ]);
    apply =
      (fun _ _ ->
        while true do
          ignore (Sys.opaque_identity ())
        done;
        { Sdfg.Diff.nodes = []; states = [] });
    certify_hint = None;
  }

(* Behaves like [good ()], but SIGKILLs the process running it whenever
   [armed ()] holds. *)
let killer ~name ~armed =
  let g = good () in
  {
    g with
    Transforms.Xform.name;
    apply =
      (fun graph site ->
        if armed () then Unix.kill (Unix.getpid ()) Sys.sigkill;
        g.Transforms.Xform.apply graph site);
  }

(* (state, ppid) of a process, from /proc/<pid>/stat; [None] once it is
   gone. The command name is parenthesized and may contain spaces. *)
let proc_stat pid =
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | s -> (
      let i = String.rindex s ')' in
      match String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) with
      | state :: ppid :: _ -> Some (state, int_of_string ppid)
      | _ -> None)
  | exception Sys_error _ -> None

let children_of pid =
  Sys.readdir "/proc" |> Array.to_list |> List.filter_map int_of_string_opt
  |> List.filter (fun p -> match proc_stat p with Some (_, pp) -> pp = pid | None -> false)

(* an orphan's zombie may never be reaped inside a container: it is dead *)
let running pid = match proc_stat pid with Some (st, _) -> st <> "Z" && st <> "X" | None -> false

let engine_tests =
  [
    Alcotest.test_case "verdicts identical for -j 1, -j 4 and the serial path" `Quick (fun () ->
        let xforms = [ good (); bad () ] in
        let run j =
          Engine.Worker.run_campaign
            ~options:{ Engine.Worker.default_options with j }
            ~config (programs ()) xforms
        in
        let c1 = run 1 and c4 = run 4 in
        let serial = Campaign.run ~config (programs ()) xforms in
        let keys c = List.map verdict_key c.Campaign.outcomes in
        Alcotest.(check bool) "j1 = j4" true (keys c1 = keys c4);
        Alcotest.(check bool) "j4 = serial" true (keys c4 = keys serial);
        Alcotest.(check int) "failures found" 2 c4.Campaign.totals.failed);
    Alcotest.test_case "hung instance is killed and reported as an outcome" `Quick (fun () ->
        let path = Filename.temp_file "ffhang" ".jsonl" in
        let handle = ref None in
        let c =
          Engine.Worker.run_campaign
            ~options:
              {
                Engine.Worker.default_options with
                j = 2;
                deadline_s = 0.5;
                journal_path = Some path;
                on_telemetry = Some (fun t -> handle := Some t);
              }
            ~config
            [ ("scale", Workloads.Npbench.scale ()) ]
            [ good (); hang () ]
        in
        Alcotest.(check int) "one killed" 1 c.Campaign.totals.killed;
        Alcotest.(check bool) "killed counts as failed" true
          (contains (Campaign.to_table c) "1 failing (1 hung/crashed)");
        (* the progress line, the live snapshot and the footer count it too *)
        (match !handle with
        | None -> Alcotest.fail "telemetry handle never arrived"
        | Some t ->
            Alcotest.(check int) "footer failed" 1
              (Engine.Telemetry.summary t).Engine.Journal.failed;
            Alcotest.(check bool) "progress line failed" true
              (contains (Engine.Telemetry.render t) "failed 1 ");
            Alcotest.(check (float 0.)) "snapshot failed" 1.
              (Engine.Journal.Json.num
                 (Engine.Journal.Json.field (Engine.Telemetry.snapshot t) "failed")));
        let row = List.assoc "Hang(test-only)" c.Campaign.rows in
        Alcotest.(check int) "row killed" 1 row.Campaign.killed;
        let killed_outcome =
          List.find (fun (o : Campaign.outcome) -> o.o_verdict = Campaign.O_killed)
            c.Campaign.outcomes
        in
        (match killed_outcome.Campaign.o_status with
        | Campaign.Timed_out { deadline_s } ->
            Alcotest.(check (float 1e-9)) "deadline" 0.5 deadline_s
        | _ -> Alcotest.fail "expected Timed_out status");
        (* and the journal agrees *)
        let records = records path in
        Sys.remove path;
        let journaled_killed =
          List.exists
            (function
              | Engine.Journal.Instance o -> o.Campaign.o_verdict = Campaign.O_killed
              | _ -> false)
            records
        in
        Alcotest.(check bool) "journaled as killed" true journaled_killed);
    Alcotest.test_case "resume replays journaled outcomes instead of re-fuzzing" `Quick
      (fun () ->
        let xforms = [ good (); bad () ] in
        let path = Filename.temp_file "ffresume" ".jsonl" in
        let options j =
          { Engine.Worker.default_options with j; journal_path = Some path }
        in
        let full =
          Engine.Worker.run_campaign ~options:(options 2) ~config (programs ()) xforms
        in
        let read_lines p =
          let ic = open_in p in
          let ls = ref [] in
          (try
             while true do
               ls := input_line ic :: !ls
             done
           with End_of_file -> ());
          close_in ic;
          List.rev !ls
        in
        let all_lines = read_lines path in
        let complete = List.filter (fun l -> l <> "") all_lines in
        (* interrupt after two instances — and tamper one journaled verdict so
           a re-fuzz (which would restore "pass") is detectable *)
        let truncated =
          match complete with
          | header :: i1 :: i2 :: _ ->
              let tampered =
                replace_once i1 ~from:"\"verdict\":\"pass\"" ~into:"\"verdict\":\"proved\""
              in
              [ header; tampered; i2 ]
          | _ -> Alcotest.fail "journal too short"
        in
        let oc = open_out path in
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          truncated;
        close_out oc;
        let resumed =
          Engine.Worker.run_campaign
            ~options:{ (options 2) with resume = true }
            ~config (programs ()) xforms
        in
        Sys.remove path;
        Alcotest.(check int) "all instances accounted for"
          full.Campaign.totals.instances resumed.Campaign.totals.instances;
        (* the tampered verdict survives: that instance was replayed from the
           journal, not re-executed *)
        Alcotest.(check int) "tampered instance not re-fuzzed" 1
          resumed.Campaign.totals.proved;
        Alcotest.(check int) "fresh instances still fuzzed"
          full.Campaign.totals.failed resumed.Campaign.totals.failed);
    Alcotest.test_case "resume with a different seed is refused" `Quick (fun () ->
        let path = Filename.temp_file "ffseed" ".jsonl" in
        ignore
          (Engine.Worker.run_campaign
             ~options:{ Engine.Worker.default_options with journal_path = Some path }
             ~config
             [ ("scale", Workloads.Npbench.scale ()) ]
             [ good () ]);
        (match
           Engine.Worker.run_campaign
             ~options:
               { Engine.Worker.default_options with journal_path = Some path; resume = true }
             ~config:{ config with Difftest.seed = config.Difftest.seed + 1 }
             [ ("scale", Workloads.Npbench.scale ()) ]
             [ good () ]
         with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
        Sys.remove path);
    Alcotest.test_case "resume across a torn tail completes and counts the recovery" `Quick
      (fun () ->
        let xforms = [ good (); bad () ] in
        let path = Filename.temp_file "fftear" ".jsonl" in
        let options = { Engine.Worker.default_options with journal_path = Some path } in
        let full = Engine.Worker.run_campaign ~options ~config (programs ()) xforms in
        (* simulate a crash mid-append: a partial record with no newline *)
        let oc = open_out_gen [ Open_append ] 0o644 path in
        output_string oc "{\"type\":\"instance\",\"id\":\"crashed-mid-wri";
        close_out oc;
        let resumed =
          Engine.Worker.run_campaign
            ~options:{ options with resume = true }
            ~config (programs ()) xforms
        in
        Alcotest.(check int) "all instances accounted for" full.Campaign.totals.instances
          resumed.Campaign.totals.instances;
        Alcotest.(check int) "verdict totals preserved" full.Campaign.totals.failed
          resumed.Campaign.totals.failed;
        (* the repair is journaled: the resumed run's footer records it *)
        let footers =
          List.filter_map
            (function Engine.Journal.Footer f -> Some f | _ -> None)
            (records path)
        in
        Sys.remove path;
        match List.rev footers with
        | last :: _ ->
            Alcotest.(check int) "recovered record counted" 1
              last.Engine.Journal.recovered_records
        | [] -> Alcotest.fail "no footer after resume");
    Alcotest.test_case "a worker killed once mid-instance: journal matches serial, one loss"
      `Quick (fun () ->
        let marker = Filename.temp_file "ffkill" ".armed" in
        (* unlink succeeds for exactly one caller: the kill fires once *)
        let armed () = match Sys.remove marker with () -> true | exception Sys_error _ -> false in
        let xforms = [ killer ~name:"KillOnce(test-only)" ~armed ] in
        let lines, footer =
          journaled ~options:{ Engine.Worker.default_options with j = 2 } xforms
        in
        Alcotest.(check bool) "the kill fired" false (Sys.file_exists marker);
        let serial = Campaign.run ~config (programs ()) xforms in
        Alcotest.(check (list string)) "instance lines byte-identical to Campaign.run"
          (List.map Engine.Journal.instance_line serial.Campaign.outcomes)
          lines;
        Alcotest.(check int) "one worker lost" 1 footer.Engine.Journal.worker_lost);
    Alcotest.test_case "an instance that kills every worker settles as Crashed at any -j" `Quick
      (fun () ->
        let xforms = [ killer ~name:"KillAlways(test-only)" ~armed:(fun () -> true) ] in
        let run j = journaled ~options:{ Engine.Worker.default_options with j } xforms in
        let l1, f1 = run 1 and l2, _ = run 2 in
        Alcotest.(check (list string)) "instance lines identical at -j 1 and -j 2" l1 l2;
        Alcotest.(check bool) "instances journaled" true (l1 <> []);
        List.iter
          (fun l ->
            match Engine.Journal.parse_line l with
            | Engine.Journal.Instance { Campaign.o_status = Campaign.Crashed { detail }; _ } ->
                Alcotest.(check string) "fixed detail" "worker lost 3 times on this instance" detail
            | _ -> Alcotest.fail ("not a crashed instance: " ^ l))
          l1;
        Alcotest.(check int) "three losses per instance"
          (3 * List.length l1) f1.Engine.Journal.worker_lost);
    Alcotest.test_case "no local worker outlives a SIGKILLed campaign process" `Quick (fun () ->
        let deadline_s = 1.0 in
        let sleeper =
          {
            (good ()) with
            Transforms.Xform.name = "Sleep(test-only)";
            apply =
              (fun _ _ ->
                Unix.sleep 30;
                { Sdfg.Diff.nodes = []; states = [] });
          }
        in
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
            (try
               ignore
                 (Engine.Worker.run_campaign
                    ~options:{ Engine.Worker.default_options with j = 2; deadline_s }
                    ~config (programs ()) [ sleeper ])
             with _ -> ());
            Unix._exit 0
        | campaign ->
            let rec await_workers tries =
              match children_of campaign with
              | ws when List.length ws >= 2 || tries = 0 -> ws
              | _ ->
                  Unix.sleepf 0.02;
                  await_workers (tries - 1)
            in
            let workers = await_workers 250 in
            Unix.kill campaign Sys.sigkill;
            ignore (Unix.waitpid [] campaign);
            Alcotest.(check int) "two local workers were running" 2 (List.length workers);
            let t0 = Unix.gettimeofday () in
            let rec await_exit () =
              if List.exists running workers then
                if Unix.gettimeofday () -. t0 > deadline_s +. 1. then
                  Alcotest.fail "a local worker outlived its campaign"
                else begin
                  Unix.sleepf 0.02;
                  await_exit ()
                end
            in
            await_exit ());
    Alcotest.test_case "20 campaigns in one process leave no children or descriptors" `Quick
      (fun () ->
        let fds () = Array.length (Sys.readdir "/proc/self/fd") in
        let before = fds () in
        for _ = 1 to 20 do
          ignore
            (Engine.Worker.run_campaign
               ~options:{ Engine.Worker.default_options with j = 2 }
               ~config (programs ()) [ good () ])
        done;
        Alcotest.(check int) "open descriptors unchanged" before (fds ());
        match Unix.waitpid [ Unix.WNOHANG ] (-1) with
        | _ -> Alcotest.fail "a child outlived its campaign"
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
    Alcotest.test_case "duplicate program or transformation names are rejected" `Quick
      (fun () ->
        let rejected f =
          match f () with _ -> false | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "duplicate program" true
          (rejected (fun () ->
               Engine.Worker.run_campaign ~config
                 [ ("scale", Workloads.Npbench.scale ()); ("scale", Workloads.Npbench.axpy ()) ]
                 [ good () ]));
        Alcotest.(check bool) "duplicate transformation" true
          (rejected (fun () ->
               Engine.Worker.run_campaign ~config (programs ()) [ good (); good () ])));
    Alcotest.test_case "an instance that catches its deadline and runs on is Timed_out at any -j"
      `Quick (fun () ->
        (* catches the alarm's exception, then would run forever *)
        let swallow =
          {
            (good ()) with
            Transforms.Xform.name = "SwallowDeadline(test-only)";
            apply =
              (fun _ _ ->
                (try Unix.sleep 5 with _ -> ());
                while true do
                  ignore (Sys.opaque_identity ())
                done;
                { Sdfg.Diff.nodes = []; states = [] });
          }
        in
        let run j =
          journaled ~options:{ Engine.Worker.default_options with j; deadline_s = 0.5 } [ swallow ]
        in
        let l1, f1 = run 1 and l2, f2 = run 2 in
        Alcotest.(check (list string)) "instance lines identical at -j 1 and -j 2" l1 l2;
        Alcotest.(check bool) "instances journaled" true (l1 <> []);
        List.iter
          (fun l ->
            match Engine.Journal.parse_line l with
            | Engine.Journal.Instance { Campaign.o_status = Campaign.Timed_out { deadline_s }; _ } ->
                Alcotest.(check (float 1e-9)) "deadline" 0.5 deadline_s
            | _ -> Alcotest.fail ("not a timed-out instance: " ^ l))
          l1;
        Alcotest.(check int) "a timeout loses no worker (-j 1)" 0 f1.Engine.Journal.worker_lost;
        Alcotest.(check int) "a timeout loses no worker (-j 2)" 0 f2.Engine.Journal.worker_lost);
    Alcotest.test_case "a resumed campaign counts what it replayed" `Quick (fun () ->
        let path = Filename.temp_file "ffrecount" ".jsonl" in
        let run resume =
          let handle = ref None in
          let c =
            Engine.Worker.run_campaign
              ~options:
                {
                  Engine.Worker.default_options with
                  j = 2;
                  deadline_s = 0.5;
                  certify_gate = true;
                  journal_path = Some path;
                  resume;
                  on_telemetry = Some (fun t -> handle := Some t);
                }
              ~config
              [ ("scale", Workloads.Npbench.scale ()) ]
              [ good (); bad (); hang () ]
          in
          let footer =
            match List.rev (records path) with
            | Engine.Journal.Footer f :: _ -> f
            | _ -> Alcotest.fail "no footer"
          in
          match !handle with
          | Some t -> (c.Campaign.totals, footer, t)
          | None -> Alcotest.fail "telemetry handle never arrived"
        in
        let first, f1, _ = run false in
        let totals, f2, t = run true in
        Sys.remove path;
        let counts (f : Engine.Journal.footer) =
          [ f.total; f.failed; f.proved; f.killed; f.trials_spent ]
        in
        Alcotest.(check bool) "a failing and a killed instance" true
          (first.failed > 0 && first.killed > 0);
        Alcotest.(check (list int)) "the first footer counts as the table does"
          [ first.instances; first.failed + first.killed; first.proved; first.killed; first.trials ]
          (counts f1);
        Alcotest.(check bool) "the resumed table is the first one" true (totals = first);
        Alcotest.(check (list int)) "the resumed footer counts the replayed outcomes" (counts f1)
          (counts f2);
        Alcotest.(check (float 0.)) "the rate counts only instances this run ran" 0.
          f2.instances_per_s;
        let snapshot k =
          int_of_float
            (Engine.Journal.Json.num (Engine.Journal.Json.field (Engine.Telemetry.snapshot t) k))
        in
        Alcotest.(check (list int)) "the snapshot counts them too" (counts f1)
          (List.map snapshot [ "completed"; "failed"; "proved"; "killed"; "trials_spent" ]);
        let line =
          Printf.sprintf "[%d/%d] 0.0 inst/s  failed %d  proved %d  killed %d  trials %d  "
            f1.total f1.total f1.failed f1.proved f1.killed f1.trials_spent
        and render = Engine.Telemetry.render t in
        Alcotest.(check string) "so does the progress line" line
          (String.sub render 0 (min (String.length line) (String.length render))));
  ]

(* ---------------- corpus ---------------- *)

let failing_testcase () =
  let g = Workloads.Npbench.scale () in
  let x = bad () in
  let site = List.hd (x.find g) in
  let r = Difftest.test_instance ~config g x site in
  match r.Difftest.verdict with
  | Difftest.Fail f -> (
      match Testcase.of_report ~config ~original:g r with
      | Some tc -> (x, site, f.Difftest.klass, tc)
      | None -> Alcotest.fail "no test case from failing report")
  | Difftest.Pass -> Alcotest.fail "vectorization should fail on scale"

let corpus_tests =
  [
    Alcotest.test_case "save admits a reproducing case once" `Quick (fun () ->
        let dir = temp_dir "ffcorpus" in
        let x, site, klass, tc = failing_testcase () in
        let catalog = [ good (); bad () ] in
        let save () =
          Engine.Corpus.save ~dir ~catalog ~program:"scale" ~xform:x.Transforms.Xform.name
            ~klass ~site tc
        in
        (match save () with
        | Engine.Corpus.Saved _ -> ()
        | _ -> Alcotest.fail "expected Saved");
        (match save () with
        | Engine.Corpus.Duplicate _ -> ()
        | _ -> Alcotest.fail "expected Duplicate");
        let entries = Engine.Corpus.entries dir in
        Alcotest.(check int) "one entry" 1 (List.length entries);
        let m = List.hd entries in
        Alcotest.(check string) "xform recorded" x.Transforms.Xform.name
          m.Engine.Corpus.xform;
        rm_rf dir);
    Alcotest.test_case "replay reproduces a saved failing case" `Quick (fun () ->
        let dir = temp_dir "ffreplay" in
        let x, site, klass, tc = failing_testcase () in
        let catalog = [ good (); bad () ] in
        (match
           Engine.Corpus.save ~dir ~catalog ~program:"scale" ~xform:x.Transforms.Xform.name
             ~klass ~site tc
         with
        | Engine.Corpus.Saved _ -> ()
        | _ -> Alcotest.fail "expected Saved");
        (match Engine.Corpus.replay ~catalog dir with
        | [ o ] -> Alcotest.(check bool) "reproduced" true o.Engine.Corpus.reproduced
        | os -> Alcotest.fail (Printf.sprintf "expected one outcome, got %d" (List.length os)));
        rm_rf dir);
    Alcotest.test_case "entries are sharded by signature prefix" `Quick (fun () ->
        let dir = temp_dir "ffshard" in
        let x, site, klass, tc = failing_testcase () in
        let catalog = [ good (); bad () ] in
        let entry_dir =
          match
            Engine.Corpus.save ~dir ~catalog ~program:"scale" ~xform:x.Transforms.Xform.name
              ~klass ~site tc
          with
          | Engine.Corpus.Saved d -> d
          | _ -> Alcotest.fail "expected Saved"
        in
        let sig_ = (List.hd (Engine.Corpus.entries dir)).Engine.Corpus.signature in
        let shard = String.sub sig_ 0 2 in
        Alcotest.(check string) "entry under dir/<prefix>/<signature>"
          (Filename.concat (Filename.concat dir shard) sig_)
          entry_dir;
        Alcotest.(check bool) "shard dir exists" true
          (Sys.is_directory (Filename.concat dir shard));
        rm_rf dir);
    Alcotest.test_case "legacy flat layout is read and lazily migrated" `Quick (fun () ->
        let dir = temp_dir "fflegacy" in
        let x, site, klass, tc = failing_testcase () in
        let catalog = [ good (); bad () ] in
        (match
           Engine.Corpus.save ~dir ~catalog ~program:"scale" ~xform:x.Transforms.Xform.name
             ~klass ~site tc
         with
        | Engine.Corpus.Saved _ -> ()
        | _ -> Alcotest.fail "expected Saved");
        (* demote the sharded entry to the flat layout an older version wrote *)
        let m = List.hd (Engine.Corpus.entries dir) in
        let sig_ = m.Engine.Corpus.signature in
        let shard = Filename.concat dir (String.sub sig_ 0 2) in
        Unix.rename (Filename.concat shard sig_) (Filename.concat dir sig_);
        Unix.rmdir shard;
        Alcotest.(check int) "flat entry listed" 1 (List.length (Engine.Corpus.entries dir));
        (* a duplicate save must see the flat entry, not resave it *)
        (match
           Engine.Corpus.save ~dir ~catalog ~program:"scale" ~xform:x.Transforms.Xform.name
             ~klass ~site tc
         with
        | Engine.Corpus.Duplicate _ -> ()
        | _ -> Alcotest.fail "expected Duplicate against flat entry");
        (* touching the entry migrated it into its shard *)
        Alcotest.(check bool) "entry migrated into shard" true
          (Sys.is_directory (Filename.concat shard sig_));
        Alcotest.(check bool) "flat path gone" false
          (Sys.file_exists (Filename.concat dir sig_));
        (match Engine.Corpus.replay ~catalog dir with
        | [ o ] -> Alcotest.(check bool) "replay after migration" true o.Engine.Corpus.reproduced
        | os -> Alcotest.fail (Printf.sprintf "expected one outcome, got %d" (List.length os)));
        rm_rf dir);
    Alcotest.test_case "signature ignores workload identity but not the bug" `Quick (fun () ->
        let x = bad () in
        let g = Workloads.Npbench.scale () in
        let site = List.hd (x.Transforms.Xform.find g) in
        let r = Difftest.test_instance ~config g x site in
        let cut = r.Difftest.cutout in
        let s1 = Engine.Corpus.signature ~xform:"X" ~klass:Difftest.Semantics cut in
        let s2 = Engine.Corpus.signature ~xform:"X" ~klass:Difftest.Input_dependent cut in
        let s3 = Engine.Corpus.signature ~xform:"Y" ~klass:Difftest.Semantics cut in
        Alcotest.(check bool) "class distinguishes" true (s1 <> s2);
        Alcotest.(check bool) "xform distinguishes" true (s1 <> s3);
        Alcotest.(check string) "deterministic" s1
          (Engine.Corpus.signature ~xform:"X" ~klass:Difftest.Semantics cut));
    Alcotest.test_case "a hang found at step limit 10000 replays within 10000 steps" `Quick
      (fun () ->
        let config = { config with Difftest.step_limit = 10_000 } in
        let g = List.assoc "trmm" (Workloads.Npb_frontend.all ()) in
        let x =
          Transforms.State_assign_elimination.make
            Transforms.State_assign_elimination.Ignore_conditions
        in
        let hang_case site =
          let r = Difftest.test_instance ~config g x site in
          match r.Difftest.verdict with
          | Difftest.Fail
              ({
                 Difftest.kind =
                   Difftest.Fault_divergence { transformed = Some (Interp.Exec.Hang _); _ };
                 _;
               } as f) ->
              Option.map (fun tc -> (site, f.Difftest.klass, tc)) (Testcase.of_report ~config ~original:g r)
          | _ -> None
        in
        match List.find_map hang_case (x.Transforms.Xform.find g) with
        | None -> Alcotest.fail "no hang divergence on trmm"
        | Some (site, klass, tc) ->
            Alcotest.(check int) "limit recorded" 10_000 tc.Testcase.step_limit;
            let dir = temp_dir "ffhang" in
            (match
               Engine.Corpus.save ~dir ~catalog:[ x ] ~program:"trmm" ~xform:x.Transforms.Xform.name
                 ~klass ~site tc
             with
            | Engine.Corpus.Saved _ -> ()
            | _ -> Alcotest.fail "expected Saved");
            (match Engine.Corpus.replay ~catalog:[ x ] dir with
            | [ o ] ->
                Alcotest.(check bool) "reproduced" true o.Engine.Corpus.reproduced;
                Alcotest.(check bool)
                  (Printf.sprintf "hang at the recorded limit (%s)" o.Engine.Corpus.detail)
                  true
                  (contains o.Engine.Corpus.detail "after 10001 steps")
            | os -> Alcotest.fail (Printf.sprintf "expected one outcome, got %d" (List.length os)));
            rm_rf dir);
  ]

let () =
  Alcotest.run "engine"
    [
      ("journal", journal_tests);
      ("campaign", engine_tests);
      ("corpus", corpus_tests);
    ]
