(* The distributed campaign service: wire-protocol integrity, the supervisor's
   typed failure taxonomy (each failure forced by a hostile fake worker), and
   the chaos gates — whatever the fleet does, verdicts match the serial run. *)

open Fuzzyflow

let config =
  { Difftest.default_config with trials = 5; max_size = 8; concretization = [ ("N", 8) ] }

let good () = Transforms.Map_tiling.make ~tile_size:4 Transforms.Map_tiling.Correct
let bad () = Transforms.Vectorization.make ~width:4 Transforms.Vectorization.Assume_divisible

let programs () =
  [ ("scale", Workloads.Npbench.scale ()); ("axpy", Workloads.Npbench.axpy ()) ]

let verdict_key (o : Campaign.outcome) =
  (o.o_program, o.o_xform, Transforms.Xform.site_slug o.o_site, o.o_verdict, o.o_seed)

let keys (c : Campaign.t) = List.map verdict_key c.Campaign.outcomes

(* quick-failing supervision so taxonomy tests stay fast. The backoff is
   long against an instance: a failed remote worker sits out while the
   local slot takes its requeued instance, so loss counts are exact. *)
let fast_policy =
  {
    Engine.Supervisor.connect_timeout_s = 1.0;
    heartbeat_s = 0.4;
    hang_grace_s = 0.3;
    max_failures = 2;
    backoff_base_s = 0.5;
    backoff_max_s = 1.0;
  }

(* ---------------- wire protocol ---------------- *)

let pipe_pair () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0

let raw_write fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let wire_tests =
  [
    Alcotest.test_case "messages round-trip through a socketpair" `Quick (fun () ->
        let a, b = pipe_pair () in
        let sub =
          {
            Engine.Wire.s_workloads = [ "scale"; "axpy" ];
            s_correct = true;
            s_trials = 7;
            s_seed = 99;
            s_max_size = 16;
            s_defines = [ ("N", 8) ];
            s_limit_per = Some 2;
            s_static_gate = false;
            s_certify_gate = true;
          }
        in
        Engine.Wire.write_message a (Engine.Wire.Submit sub);
        (match Engine.Wire.read_message ~timeout_s:5. b with
        | Engine.Wire.Submit sub' -> Alcotest.(check bool) "submission" true (sub' = sub)
        | _ -> Alcotest.fail "expected Submit");
        Engine.Wire.write_message b (Engine.Wire.Pong 42);
        (match Engine.Wire.read_message ~timeout_s:5. a with
        | Engine.Wire.Pong 42 -> ()
        | _ -> Alcotest.fail "expected Pong 42");
        Unix.close a;
        Unix.close b);
    Alcotest.test_case "a flipped payload byte is a Protocol_error, not a message" `Quick
      (fun () ->
        let a, b = pipe_pair () in
        let frame = Bytes.of_string (Engine.Wire.encode (Engine.Wire.Ping 7)) in
        let off = Engine.Wire.header_len in
        Bytes.set frame off (Char.chr (Char.code (Bytes.get frame off) lxor 0x10));
        raw_write a (Bytes.to_string frame);
        (match Engine.Wire.read_message ~timeout_s:5. b with
        | _ -> Alcotest.fail "corrupt frame decoded"
        | exception Engine.Wire.Protocol_error d ->
            Alcotest.(check bool) "checksum named" true
              (String.length d > 0 && String.sub d 0 8 = "checksum"));
        Unix.close a;
        Unix.close b);
    Alcotest.test_case "a forged protocol version is Bad_version before any decode" `Quick
      (fun () ->
        let a, b = pipe_pair () in
        raw_write a (Engine.Wire.encode ~proto:99 (Engine.Wire.Ping 1));
        (match Engine.Wire.read_message ~timeout_s:5. b with
        | _ -> Alcotest.fail "mismatched frame decoded"
        | exception Engine.Wire.Bad_version { ours; theirs } ->
            Alcotest.(check int) "ours" Engine.Wire.protocol_version ours;
            Alcotest.(check int) "theirs" 99 theirs);
        Unix.close a;
        Unix.close b);
    Alcotest.test_case "EOF mid-frame is Closed" `Quick (fun () ->
        let a, b = pipe_pair () in
        let frame = Engine.Wire.encode (Engine.Wire.Ping 1) in
        raw_write a (String.sub frame 0 (Engine.Wire.header_len + 1));
        Unix.close a;
        (match Engine.Wire.read_message ~timeout_s:5. b with
        | _ -> Alcotest.fail "truncated frame decoded"
        | exception Engine.Wire.Closed -> ());
        Unix.close b);
    Alcotest.test_case "endpoints parse and print" `Quick (fun () ->
        let ep = Engine.Supervisor.endpoint_of_string "10.0.0.5:7411" in
        Alcotest.(check string) "host" "10.0.0.5" ep.Engine.Supervisor.host;
        Alcotest.(check int) "port" 7411 ep.Engine.Supervisor.port;
        Alcotest.(check string) "default host" "127.0.0.1"
          (Engine.Supervisor.endpoint_of_string ":8000").Engine.Supervisor.host;
        (match Engine.Supervisor.endpoint_of_string "nonsense" with
        | _ -> Alcotest.fail "parsed a portless endpoint"
        | exception Invalid_argument _ -> ()));
    Alcotest.test_case "backoff is deterministic, positive and bounded" `Quick (fun () ->
        let ep = { Engine.Supervisor.host = "127.0.0.1"; port = 7411 } in
        let d n =
          Engine.Supervisor.backoff_delay ~policy:fast_policy ~ep ~failures:n ~seed:1234
        in
        Alcotest.(check (float 1e-12)) "deterministic" (d 3) (d 3);
        List.iter
          (fun n ->
            Alcotest.(check bool) "positive" true (d n > 0.);
            Alcotest.(check bool) "bounded" true
              (d n <= fast_policy.Engine.Supervisor.backoff_max_s *. 2.))
          [ 1; 2; 3; 8 ]);
  ]

(* ---------------- fake workers forcing each failure class ---------------- *)

(* Fork a server whose per-connection behaviour is [behave]; returns its pid
   and port. The child never returns into the test runner. *)
let fake_server behave =
  let sock, port = Engine.Supervisor.listen_on ~port:0 () in
  match Unix.fork () with
  | 0 ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      (try
         while true do
           let client, _ = Unix.accept sock in
           (try behave client with _ -> ());
           try Unix.close client with Unix.Unix_error _ -> ()
         done
       with _ -> ());
      Unix._exit 0
  | pid ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (pid, port)

let stop_server pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let handshake client =
  match Engine.Wire.read_message ~timeout_s:5. client with
  | Engine.Wire.Hello _ ->
      Engine.Wire.write_message ~timeout_s:5. client
        (Engine.Wire.Hello_ack { proto = Engine.Wire.protocol_version })
  | _ -> ()

(* an ephemeral port with nothing behind it: real ECONNREFUSED *)
let dead_port () =
  let sock, port = Engine.Supervisor.listen_on ~port:0 () in
  Unix.close sock;
  port

(* Run a small campaign with the worker at [port] added to the local slot,
   collecting observed failure classes; returns (campaign, classes, footer
   counters). *)
let run_against ?(deadline_s = 10.) port =
  let classes = ref [] in
  let handle = ref None in
  let c =
    Engine.Worker.run_campaign
      ~options:
        {
          Engine.Worker.default_options with
          deadline_s;
          workers = [ { Engine.Supervisor.host = "127.0.0.1"; port } ];
          policy = fast_policy;
          on_failure =
            (fun _ cls -> classes := Engine.Supervisor.failure_class_name cls :: !classes);
          on_telemetry = Some (fun t -> handle := Some t);
        }
      ~config
      [ ("scale", Workloads.Npbench.scale ()) ]
      [ good () ]
  in
  let footer =
    match !handle with
    | Some t -> Engine.Telemetry.summary t
    | None -> Alcotest.fail "telemetry handle never arrived"
  in
  (c, List.sort_uniq compare !classes, footer)

let reference () =
  Engine.Worker.run_campaign ~options:Engine.Worker.default_options ~config
    [ ("scale", Workloads.Npbench.scale ()) ]
    [ good () ]

(* The local slot finishes what the broken remote worker could not. Only a
   disconnect or hang with the instance in flight is a worker loss. *)
let check_heals ~expect_class ~lost (c, classes, (footer : Engine.Journal.footer)) =
  Alcotest.(check bool) "verdicts match the local run" true (keys c = keys (reference ()));
  Alcotest.(check bool)
    (Printf.sprintf "observed %s (got: %s)" expect_class (String.concat "," classes))
    true (List.mem expect_class classes);
  Alcotest.(check int) "workers lost" lost footer.Engine.Journal.worker_lost

let taxonomy_tests =
  [
    Alcotest.test_case "dead endpoint: connect-refused, then local slots finish" `Quick (fun () ->
        check_heals ~expect_class:"connect-refused" ~lost:0 (run_against (dead_port ())));
    Alcotest.test_case "version-mismatched worker is rejected before payload decode" `Quick
      (fun () ->
        let pid, port =
          fake_server (fun client ->
              match Engine.Wire.read_message ~timeout_s:5. client with
              | Engine.Wire.Hello _ ->
                  raw_write client
                    (Engine.Wire.encode ~proto:99
                       (Engine.Wire.Hello_ack { proto = 99 }));
                  ignore (Unix.select [] [] [] 0.2)
              | _ -> ())
        in
        Fun.protect ~finally:(fun () -> stop_server pid) @@ fun () ->
        check_heals ~expect_class:"version-mismatch" ~lost:0 (run_against port));
    Alcotest.test_case "disconnect mid-instance is typed, requeued, never a verdict" `Quick
      (fun () ->
        let pid, port =
          fake_server (fun client ->
              handshake client;
              (* accept the assignment, then die without answering *)
              ignore (Engine.Wire.read_message ~timeout_s:5. client))
        in
        Fun.protect ~finally:(fun () -> stop_server pid) @@ fun () ->
        check_heals ~expect_class:"disconnect" ~lost:1 (run_against port));
    Alcotest.test_case "undecodable reply is a decode failure, not a verdict" `Quick (fun () ->
        let pid, port =
          fake_server (fun client ->
              handshake client;
              match Engine.Wire.read_message ~timeout_s:5. client with
              | Engine.Wire.Assign _ ->
                  (* valid header and checksum around garbage: only the
                     payload decode can catch this one *)
                  raw_write client (Engine.Wire.encode_frame "not a marshalled message");
                  ignore (Unix.select [] [] [] 0.2)
              | _ -> ())
        in
        Fun.protect ~finally:(fun () -> stop_server pid) @@ fun () ->
        check_heals ~expect_class:"decode-failure" ~lost:0 (run_against port));
    Alcotest.test_case "a worker that hangs past the deadline is failed as a hang" `Quick
      (fun () ->
        let pid, port =
          fake_server (fun client ->
              handshake client;
              match Engine.Wire.read_message ~timeout_s:5. client with
              | Engine.Wire.Assign _ -> ignore (Unix.select [] [] [] 30.)
              | _ -> ())
        in
        Fun.protect ~finally:(fun () -> stop_server pid) @@ fun () ->
        check_heals ~expect_class:"hang" ~lost:1 (run_against ~deadline_s:0.7 port));
    Alcotest.test_case "worker refusing an assignment: campaign still completes" `Quick
      (fun () ->
        let pid, port =
          fake_server (fun client ->
              handshake client;
              let rec serve () =
                match Engine.Wire.read_message ~timeout_s:5. client with
                | Engine.Wire.Assign { Engine.Wire.a_idx; _ } ->
                    Engine.Wire.write_message ~timeout_s:5. client
                      (Engine.Wire.Refused { r_idx = a_idx; r_detail = "not today" });
                    serve ()
                | _ -> ()
              in
              serve ())
        in
        Fun.protect ~finally:(fun () -> stop_server pid) @@ fun () ->
        check_heals ~expect_class:"decode-failure" ~lost:0 (run_against port));
  ]

(* ---------------- real workers: happy path and chaos ---------------- *)

let spawn_worker xforms =
  let sock, port = Engine.Supervisor.listen_on ~port:0 () in
  match Unix.fork () with
  | 0 ->
      (try Engine.Supervisor.serve_worker ~catalog:xforms sock with _ -> ());
      Unix._exit 0
  | pid ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (pid, port)

let endpoint port = { Engine.Supervisor.host = "127.0.0.1"; port }

let is_instance l = String.length l >= 18 && String.sub l 0 18 = {|{"type":"instance"|}

(* The same transformations, with [before ()] run ahead of every apply in
   the process that runs them: handed to a remote worker as its catalog, it
   observes or sabotages remote executions only. *)
let wrap_apply ~before xforms =
  List.map
    (fun (x : Transforms.Xform.t) ->
      {
        x with
        Transforms.Xform.apply =
          (fun g site ->
            before ();
            x.Transforms.Xform.apply g site);
      })
    xforms

(* Runs [programs ()] with [options], returning the journal's instance lines
   and the footer counters. *)
let journaled ~options xforms =
  let lines = ref [] and handle = ref None in
  ignore
    (Engine.Worker.run_campaign
       ~options:
         {
           options with
           Engine.Worker.journal_sink = Some (fun l -> if is_instance l then lines := l :: !lines);
           on_telemetry = Some (fun t -> handle := Some t);
         }
       ~config (programs ()) xforms);
  match !handle with
  | Some t -> (List.rev !lines, Engine.Telemetry.summary t)
  | None -> Alcotest.fail "telemetry handle never arrived"

let kill_self () = Unix.kill (Unix.getpid ()) Sys.sigkill

let dist_tests =
  [
    Alcotest.test_case "a protocol v2 peer gets no handshake reply" `Quick (fun () ->
        Alcotest.(check int) "this side speaks v4" 4 Engine.Wire.protocol_version;
        let pid, port = spawn_worker [] in
        Fun.protect ~finally:(fun () -> stop_server pid) @@ fun () ->
        List.iter
          (fun proto ->
            let fd = Engine.Wire.connect ~timeout_s:5. ~host:"127.0.0.1" ~port in
            raw_write fd (Engine.Wire.encode ~proto (Engine.Wire.Hello { proto }));
            (match Engine.Wire.read_message ~timeout_s:5. fd with
            | _ -> Alcotest.failf "a v%d peer got a reply" proto
            | exception Engine.Wire.Closed -> ());
            Unix.close fd)
          [ 2; 3 ]);
    Alcotest.test_case "two live workers produce the serial verdicts and deliver results" `Quick
      (fun () ->
        let xforms = [ good (); bad () ] in
        let applied = Filename.temp_file "ffremote" ".applied" in
        let record () =
          let oc = open_out_gen [ Open_append; Open_creat ] 0o644 applied in
          output_string oc "x\n";
          close_out oc
        in
        let p1, port1 = spawn_worker (wrap_apply ~before:record xforms) in
        let p2, port2 = spawn_worker (wrap_apply ~before:record xforms) in
        Fun.protect
          ~finally:(fun () ->
            stop_server p1;
            stop_server p2;
            Sys.remove applied)
        @@ fun () ->
        let lines, footer =
          journaled
            ~options:
              {
                Engine.Worker.default_options with
                workers = [ endpoint port1; endpoint port2 ];
                policy = fast_policy;
              }
            xforms
        in
        let serial = Campaign.run ~config (programs ()) xforms in
        Alcotest.(check (list string)) "remote = serial"
          (List.map Engine.Journal.instance_line serial.Campaign.outcomes)
          lines;
        Alcotest.(check int) "failures found" 2 serial.Campaign.totals.failed;
        Alcotest.(check int) "no failures" 0 footer.Engine.Journal.retries;
        (* remote slots take the first assignments *)
        Alcotest.(check bool) "remote workers ran instances" true
          ((Unix.stat applied).Unix.st_size > 0));
    Alcotest.test_case "proxy-corrupted reply heals by retry on the same worker" `Quick
      (fun () ->
        (* Once the dispatcher has seen the decode failure it creates
           [failed]; from then on the remote worker records each instance it
           starts. Everything a worker starts is delivered unless it fails
           again, so a record is a remote delivery after the reconnect. The
           local slot is slowed and the backoff short, so pending work
           outlasts the remote's backoff. *)
        let failed = Filename.temp_file "ffproxy" ".failed" in
        let after = Filename.temp_file "ffproxy" ".after" in
        Sys.remove failed;
        let touch path = close_out (open_out_gen [ Open_append; Open_creat ] 0o644 path) in
        let record () =
          if Sys.file_exists failed then begin
            let oc = open_out_gen [ Open_append; Open_creat ] 0o644 after in
            output_string oc "x\n";
            close_out oc
          end
        in
        let wpid, wport = spawn_worker (wrap_apply ~before:record [ good () ]) in
        let proxy =
          Faultlab.Netfault.start
            ~policy:
              {
                Faultlab.Netfault.kind = Faultlab.Netfault.Corrupt;
                victim_conn = 0;
                victim_chunk = 1;
                persistent = false;
                seed = 7;
              }
            ~target_port:wport ()
        in
        Fun.protect
          ~finally:(fun () ->
            Faultlab.Netfault.stop proxy;
            stop_server wpid;
            List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ failed; after ])
        @@ fun () ->
        let classes = ref [] in
        let on_failure _ cls =
          let name = Engine.Supervisor.failure_class_name cls in
          classes := name :: !classes;
          if name = "decode-failure" then touch failed
        in
        let reference, _ = journaled ~options:Engine.Worker.default_options [ good () ] in
        let lines, footer =
          journaled
            ~options:
              {
                Engine.Worker.default_options with
                workers = [ endpoint proxy.Faultlab.Netfault.port ];
                policy = { fast_policy with backoff_base_s = 0.02; backoff_max_s = 0.1 };
                on_failure;
              }
            (wrap_apply ~before:(fun () -> Unix.sleepf 0.3) [ good () ])
        in
        Alcotest.(check (list string)) "instance lines match the local run" reference lines;
        Alcotest.(check (list string)) "one decode failure, nothing else" [ "decode-failure" ]
          !classes;
        Alcotest.(check int) "a decode failure is not a loss" 0 footer.Engine.Journal.worker_lost;
        Alcotest.(check bool) "the remote delivered an instance after its decode failure" true
          (Sys.file_exists after && (Unix.stat after).Unix.st_size > 0));
    Alcotest.test_case "a remote worker that keeps losing an instance cannot poison it" `Quick
      (fun () ->
        (* every connection drops its first assignment; with a short backoff
           the remote takes the requeued instance back while the slowed local
           slot is busy, until it is quarantined *)
        let pid, port =
          fake_server (fun client ->
              handshake client;
              ignore (Engine.Wire.read_message ~timeout_s:5. client))
        in
        Fun.protect ~finally:(fun () -> stop_server pid) @@ fun () ->
        let reference, _ = journaled ~options:Engine.Worker.default_options [ good () ] in
        let lines, footer =
          journaled
            ~options:
              {
                Engine.Worker.default_options with
                workers = [ endpoint port ];
                policy = { fast_policy with backoff_base_s = 0.02; backoff_max_s = 0.1 };
              }
            (wrap_apply ~before:(fun () -> Unix.sleepf 0.3) [ good () ])
        in
        Alcotest.(check (list string)) "instance lines match the local run" reference lines;
        Alcotest.(check int) "the remote lost an instance until quarantined"
          fast_policy.Engine.Supervisor.max_failures footer.Engine.Journal.worker_lost);
    Alcotest.test_case "a remote instance that catches its deadline gets the local verdict"
      `Quick (fun () ->
        (* the alarm is one-shot and [apply] runs more than once per
           instance, so after catching the deadline the remote worker sleeps
           on until the dispatcher fails it as a hang; the instance then
           times out on the local slot *)
        let swallow =
          {
            (good ()) with
            Transforms.Xform.name = "SwallowDeadline(test-only)";
            apply =
              (fun g site ->
                (try Unix.sleep 5 with _ -> ());
                (good ()).Transforms.Xform.apply g site);
          }
        in
        let wpid, wport = spawn_worker [ swallow ] in
        Fun.protect ~finally:(fun () -> stop_server wpid) @@ fun () ->
        let options = { Engine.Worker.default_options with deadline_s = 0.5 } in
        let local, _ = journaled ~options [ swallow ] in
        let mixed, _ =
          journaled
            ~options:{ options with workers = [ endpoint wport ]; policy = fast_policy }
            [ swallow ]
        in
        Alcotest.(check (list string)) "identical with a remote worker" local mixed;
        Alcotest.(check bool) "instances journaled" true (local <> []);
        List.iter
          (fun l ->
            match Engine.Journal.parse_line l with
            | Engine.Journal.Instance { Campaign.o_status = Campaign.Timed_out _; _ } -> ()
            | _ -> Alcotest.fail ("not a timed-out instance: " ^ l))
          local);
    Alcotest.test_case "worker SIGKILLed mid-campaign: byte-identical journal, one loss" `Quick
      (fun () ->
        let xforms = [ good (); bad () ] in
        (* the remote worker SIGKILLs itself inside its first instance *)
        let wpid, wport = spawn_worker (wrap_apply ~before:kill_self xforms) in
        Fun.protect ~finally:(fun () -> stop_server wpid) @@ fun () ->
        let reference, _ = journaled ~options:Engine.Worker.default_options xforms in
        let chaos, footer =
          journaled
            ~options:
              { Engine.Worker.default_options with workers = [ endpoint wport ]; policy = fast_policy }
            xforms
        in
        Alcotest.(check (list string)) "instance lines byte-identical" reference chaos;
        Alcotest.(check bool) "instance lines nonempty" true (reference <> []);
        Alcotest.(check int) "the killed worker's instance was requeued" 1
          footer.Engine.Journal.worker_lost);
    Alcotest.test_case "an instance that kills every worker settles the same in any topology"
      `Quick (fun () ->
        let xforms = wrap_apply ~before:kill_self [ good () ] in
        let wpid, wport = spawn_worker xforms in
        Fun.protect ~finally:(fun () -> stop_server wpid) @@ fun () ->
        let options = { Engine.Worker.default_options with policy = fast_policy } in
        let local, _ = journaled ~options xforms in
        let mixed, _ =
          journaled ~options:{ options with j = 2; workers = [ endpoint wport ] } xforms
        in
        Alcotest.(check (list string)) "identical with a remote worker and -j 2" local mixed;
        List.iter
          (fun l ->
            match Engine.Journal.parse_line l with
            | Engine.Journal.Instance { Campaign.o_status = Campaign.Crashed { detail }; _ } ->
                Alcotest.(check string) "fixed detail" "worker lost 2 times on this instance" detail
            | _ -> Alcotest.fail ("not a crashed instance: " ^ l))
          local);
  ]

(* ---------------- torn-result robustness on the worker side -------------- *)

let assignment_tests =
  [
    Alcotest.test_case "an assignment naming an unknown transform is Refused" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let x = good () in
        let site = List.hd (x.Transforms.Xform.find g) in
        let a =
          {
            Engine.Wire.a_idx = 3;
            a_program = "scale";
            a_graph = Marshal.to_string g [];
            a_xform = "NoSuchTransform";
            a_site = site;
            a_config = config;
            a_static_gate = false;
            a_certify_gate = false;
            a_deadline_s = 10.;
          }
        in
        match Engine.Supervisor.run_assignment ~catalog:[ x ] a with
        | Engine.Wire.Refused { r_idx = 3; r_detail } ->
            Alcotest.(check bool) "detail names the transform" true
              (String.length r_detail > 0)
        | _ -> Alcotest.fail "expected Refused");
    Alcotest.test_case "a well-formed assignment executes like the local pool" `Quick (fun () ->
        let g = Workloads.Npbench.scale () in
        let x = good () in
        let site = List.hd (x.Transforms.Xform.find g) in
        let seed = Campaign.instance_seed ~global:config.Difftest.seed "whatever" in
        let iconfig = { config with Difftest.seed } in
        let a =
          {
            Engine.Wire.a_idx = 0;
            a_program = "scale";
            a_graph = Marshal.to_string g [];
            a_xform = x.Transforms.Xform.name;
            a_site = site;
            a_config = iconfig;
            a_static_gate = false;
            a_certify_gate = false;
            a_deadline_s = 10.;
          }
        in
        match Engine.Supervisor.run_assignment ~catalog:[ x ] a with
        | Engine.Wire.Result { r_idx = 0; r_status = Campaign.Completed; r_payload = Some r; _ }
          ->
            let local = Campaign.run_instance ~config:iconfig ~program:("scale", g) x site in
            (* everything verdict-bearing must agree; only wall-clock fields
               ([report.elapsed_s]) may differ between the two executions *)
            let key (r : Campaign.instance_result) =
              ( r.Campaign.program,
                r.Campaign.xform_name,
                Transforms.Xform.site_slug r.Campaign.site,
                Option.map (fun (rep : Difftest.report) -> rep.Difftest.verdict) r.Campaign.report
              )
            in
            Alcotest.(check bool) "same verdict-bearing result" true (key r = key local)
        | _ -> Alcotest.fail "expected a completed Result");
    Alcotest.test_case "a failed assignment leaves a fresh baseline memo" `Quick (fun () ->
        let g = Workloads.Cloudsc.build () in
        let x = good () in
        let site = List.hd (x.Transforms.Xform.find g) in
        (* [Exit] is no failed application: it escapes [apply_copy] and
           crashes the assignment *)
        let boom =
          { x with Transforms.Xform.name = "Boom"; apply = (fun _ _ -> raise Exit) }
        in
        let iconfig =
          { config with Difftest.concretization = Workloads.Cloudsc.default_symbols; trials = 2 }
        in
        let assign ?(deadline_s = 30.) xform =
          {
            Engine.Wire.a_idx = 0;
            a_program = "cloudsc";
            a_graph = Marshal.to_string g [];
            a_xform = xform;
            a_site = site;
            a_config = iconfig;
            a_static_gate = true;
            a_certify_gate = true;
            a_deadline_s = deadline_s;
          }
        in
        let local =
          Campaign.run_instance ~config:iconfig ~static_gate:true ~certify_gate:true
            ~program:("cloudsc", g) x site
        in
        let check_like_local what = function
          | Engine.Wire.Result { r_status = Campaign.Completed; r_payload = Some r; _ } ->
              Alcotest.(check bool) (what ^ ": static") true (r.Campaign.static = local.static);
              Alcotest.(check bool) (what ^ ": dep_stats") true (r.dep_stats = local.dep_stats);
              Alcotest.(check bool) (what ^ ": verdict") true (r.verdict = local.verdict);
              Alcotest.(check bool) (what ^ ": report") true
                (Option.map (fun (p : Difftest.report) -> p.verdict) r.report
                = Option.map (fun (p : Difftest.report) -> p.verdict) local.report)
          | _ -> Alcotest.failf "%s: expected a completed Result" what
        in
        (* one worker's caches across its assignments, as on a remote
           worker: the deadline raises instead of ending the process. The
           alarm lands wherever the instance happens to be, possibly in the
           middle of a memo table's update. *)
        match
          Engine.Supervisor.run_assignments ~catalog:[ x; boom ]
            [
              assign x.name;
              assign x.name;
              assign ~deadline_s:0.001 x.name;
              assign x.name;
              assign "Boom";
              assign x.name;
            ]
        with
        | [
            (cold, _);
            (warm, warm_memo);
            (late, after_late);
            (rerun, _);
            (crash, after_crash);
            (last, _);
          ] ->
            check_like_local "cold" cold;
            check_like_local "warm" warm;
            Alcotest.(check (pair int int))
              "the program's baseline is analyzed once" (1, 1) warm_memo;
            (match late with
            | Engine.Wire.Result { r_status = Campaign.Timed_out _; _ } -> ()
            | _ -> Alcotest.fail "expected Timed_out");
            Alcotest.(check (pair int int)) "fresh after Timed_out" (0, 0) after_late;
            check_like_local "after Timed_out" rerun;
            (match crash with
            | Engine.Wire.Result { r_status = Campaign.Crashed _; _ } -> ()
            | _ -> Alcotest.fail "expected Crashed");
            Alcotest.(check (pair int int)) "fresh after Crashed" (0, 0) after_crash;
            check_like_local "after Crashed" last
        | _ -> Alcotest.fail "expected six replies");
  ]

let () =
  Alcotest.run "dist"
    [
      ("wire", wire_tests);
      ("taxonomy", taxonomy_tests);
      ("dist", dist_tests);
      ("assignment", assignment_tests);
    ]
