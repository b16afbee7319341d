open Fuzzyflow

type config = {
  port : int;
  http_port : int option;
  workers : Supervisor.endpoint list;
  policy : Supervisor.policy;
  j : int;
  deadline_s : float;
  journal_dir : string;
  corpus_dir : string option;
  max_campaigns : int option;
  log : string -> unit;
}

let default_config =
  {
    port = 7400;
    http_port = None;
    workers = [];
    policy = Supervisor.default_policy;
    j = 1;
    deadline_s = 60.;
    journal_dir = "_service";
    corpus_dir = None;
    max_campaigns = None;
    log = (fun msg -> Printf.eprintf "service: %s\n%!" msg);
  }

(* ---------------- HTTP/JSON telemetry endpoint ---------------- *)

type state = {
  mutable status : string;  (** "idle" | "running" *)
  mutable campaigns : int;  (** submissions completed *)
  mutable telemetry : Telemetry.t option;  (** live handle during a campaign *)
  mutable journal_rev : string list;  (** current/last campaign journal, reversed *)
}

let http_body st path =
  match path with
  | "/telemetry" ->
      let counters =
        match st.telemetry with
        | Some t -> Telemetry.snapshot t
        | None -> Journal.Json.Null
      in
      ( "application/json",
        Journal.Json.to_string
          (Journal.Json.Obj
             [
               ("status", Journal.Json.Str st.status);
               ("campaigns", Journal.Json.Num (float_of_int st.campaigns));
               ("counters", counters);
             ])
        ^ "\n" )
  | "/journal" ->
      ("application/x-ndjson", String.concat "\n" (List.rev st.journal_rev) ^ "\n")
  | _ -> ("text/plain", "not found\n")

(* One-shot HTTP/1.0 exchange on an already-accepted client: read what
   arrived, answer, close. Deliberately minimal — a telemetry peek, not a web
   server — and bounded so a stuck client cannot stall the campaign. *)
let http_answer st client =
  let buf = Bytes.create 4096 in
  (match Unix.select [ client ] [] [] 0.2 with
  | [ _ ], _, _ -> (
      match Unix.read client buf 0 4096 with
      | 0 -> ()
      | len ->
          let req = Bytes.sub_string buf 0 len in
          let path =
            match String.split_on_char ' ' (List.hd (String.split_on_char '\r' req)) with
            | _meth :: path :: _ -> path
            | _ -> "/"
          in
          let status, (ctype, body) =
            match http_body st path with
            | ("text/plain", _) as r when path <> "/" -> ("404 Not Found", r)
            | r -> ("200 OK", r)
          in
          let resp =
            Printf.sprintf
              "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
              status ctype (String.length body) body
          in
          ignore (Unix.write_substring client resp 0 (String.length resp))
      | exception Unix.Unix_error _ -> ())
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  try Unix.close client with Unix.Unix_error _ -> ()

(* Drain any waiting HTTP clients without blocking. Called from the select
   loop and — via the supervisor's [tick] and the journal sink — from inside
   a running campaign, so live telemetry stays live mid-campaign. *)
let http_tick st = function
  | None -> ()
  | Some (sock, _) -> (
      let continue = ref true in
      while !continue do
        match Unix.accept sock with
        | client, _ -> http_answer st client
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> continue := false
        | exception Unix.Unix_error _ -> continue := false
      done)

(* ---------------- campaign execution ---------------- *)

let run_submission ~config ~resolve ~catalog_of ~st ~http client (sub : Wire.submission) =
  let unknown =
    List.filter (fun w -> resolve w = None) sub.Wire.s_workloads
  in
  if sub.Wire.s_workloads = [] then
    Wire.write_message ~timeout_s:10. client
      (Wire.Done { ok = false; detail = "no workloads in submission" })
  else if unknown <> [] then
    Wire.write_message ~timeout_s:10. client
      (Wire.Done { ok = false; detail = "unknown workloads: " ^ String.concat ", " unknown })
  else begin
    let programs =
      List.map (fun w -> (w, Option.get (resolve w))) sub.Wire.s_workloads
    in
    let xforms = catalog_of sub.Wire.s_correct in
    let dconfig =
      {
        Difftest.default_config with
        trials = sub.Wire.s_trials;
        seed = sub.Wire.s_seed;
        max_size = sub.Wire.s_max_size;
        concretization = sub.Wire.s_defines;
      }
    in
    let journal_path =
      Filename.concat config.journal_dir (Printf.sprintf "campaign-%03d.jsonl" st.campaigns)
    in
    st.status <- "running";
    st.journal_rev <- [];
    let client_gone = ref false in
    let sink line =
      st.journal_rev <- line :: st.journal_rev;
      http_tick st http;
      if not !client_gone then
        try Wire.write_message ~timeout_s:5. client (Wire.Journal_line line)
        with Wire.Closed | Wire.Timeout | Unix.Unix_error _ ->
          (* the submitting client went away; the campaign finishes anyway
             and its journal stays on disk *)
          client_gone := true
    in
    let options =
      {
        Worker.default_options with
        j = config.j;
        deadline_s = config.deadline_s;
        journal_path = Some journal_path;
        corpus_dir = config.corpus_dir;
        limit_per = sub.Wire.s_limit_per;
        static_gate = sub.Wire.s_static_gate;
        certify_gate = sub.Wire.s_certify_gate;
        workers = config.workers;
        policy = config.policy;
        tick = (fun () -> http_tick st http);
        journal_sink = Some sink;
        on_telemetry = Some (fun t -> st.telemetry <- Some t);
      }
    in
    match Worker.run_campaign ~options ~config:dconfig programs xforms with
    | campaign ->
        st.status <- "idle";
        st.campaigns <- st.campaigns + 1;
        let s = campaign.Campaign.totals in
        config.log
          (Printf.sprintf "campaign %d done: %d instances, %d failed (journal %s)"
             (st.campaigns - 1) s.instances (s.failed + s.killed) journal_path);
        if not !client_gone then begin
          try
            Wire.write_message ~timeout_s:10. client (Wire.Table (Campaign.to_table campaign));
            Wire.write_message ~timeout_s:10. client (Wire.Done { ok = true; detail = "" })
          with Wire.Closed | Wire.Timeout | Unix.Unix_error _ -> ()
        end
    | exception e ->
        st.status <- "idle";
        config.log (Printf.sprintf "campaign failed: %s" (Printexc.to_string e));
        if not !client_gone then begin
          try
            Wire.write_message ~timeout_s:10. client
              (Wire.Done { ok = false; detail = Printexc.to_string e })
          with Wire.Closed | Wire.Timeout | Unix.Unix_error _ -> ()
        end
  end

(* ---------------- the daemon ---------------- *)

let serve ?(config = default_config) ~resolve ~catalog_of () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Corpus.mkdir_p config.journal_dir;
  let csock, cport = Wire.listen_on ~port:config.port () in
  let http =
    Option.map
      (fun p ->
        let sock, port = Wire.listen_on ~port:p () in
        Unix.set_nonblock sock;
        (sock, port))
      config.http_port
  in
  let st = { status = "idle"; campaigns = 0; telemetry = None; journal_rev = [] } in
  (* the ready line goes to stdout so scripts can await/parse it *)
  Printf.printf "service: listening control=127.0.0.1:%d%s workers=[%s]\n%!" cport
    (match http with Some (_, p) -> Printf.sprintf " http=127.0.0.1:%d" p | None -> "")
    (String.concat "," (List.map Supervisor.endpoint_to_string config.workers));
  let stop = ref false in
  while not !stop do
    let fds = csock :: (match http with Some (s, _) -> [ s ] | None -> []) in
    (match Unix.select fds [] [] 1.0 with
    | readable, _, _ ->
        (match http with
        | Some (hs, _) when List.memq hs readable -> http_tick st http
        | _ -> ());
        if List.memq csock readable then begin
          match Unix.accept csock with
          | client, _ ->
              (try
                 match Wire.read_message ~timeout_s:30. client with
                 | Wire.Submit sub ->
                     run_submission ~config ~resolve ~catalog_of ~st ~http client sub;
                     (match config.max_campaigns with
                     | Some m when st.campaigns >= m -> stop := true
                     | _ -> ())
                 | Wire.Shutdown ->
                     (try Wire.write_message ~timeout_s:5. client (Wire.Done { ok = true; detail = "bye" })
                      with _ -> ());
                     stop := true
                 | _ ->
                     Wire.write_message ~timeout_s:5. client
                       (Wire.Done { ok = false; detail = "expected a submission" })
               with
              | Wire.Closed | Wire.Timeout | Wire.Protocol_error _ | Wire.Bad_version _
              | Unix.Unix_error _
              ->
                ());
              (try Unix.close client with Unix.Unix_error _ -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done;
  (try Unix.close csock with Unix.Unix_error _ -> ());
  match http with Some (s, _) -> ( try Unix.close s with Unix.Unix_error _ -> ()) | None -> ()

(* ---------------- the submitting client ---------------- *)

let submit ?(timeout_s = 600.) ~host ~port ?(on_line = fun (_ : string) -> ())
    (sub : Wire.submission) =
  match Wire.connect ~timeout_s:10. ~host ~port with
  | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "cannot reach service at %s:%d: %s" host port (Unix.error_message err))
  | exception Wire.Timeout ->
      Error (Printf.sprintf "cannot reach service at %s:%d: connect timed out" host port)
  | fd ->
      let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
      Fun.protect ~finally @@ fun () ->
      (match Wire.write_message ~timeout_s:10. fd (Wire.Submit sub) with
      | () -> (
          let table = ref None in
          let rec go () =
            match Wire.read_message ~timeout_s fd with
            | Wire.Journal_line l ->
                on_line l;
                go ()
            | Wire.Table t ->
                table := Some t;
                go ()
            | Wire.Done { ok = true; _ } -> Ok !table
            | Wire.Done { ok = false; detail } -> Error detail
            | _ -> go ()
          in
          try go () with
          | Wire.Closed -> Error "service closed the connection mid-campaign"
          | Wire.Timeout -> Error "timed out waiting for the service"
          | Wire.Protocol_error d -> Error ("protocol error: " ^ d)
          | Wire.Bad_version { ours; theirs } ->
              Error (Printf.sprintf "protocol version mismatch: ours %d, service %d" ours theirs))
      | exception (Wire.Closed | Wire.Timeout) -> Error "service rejected the submission")

let shutdown ~host ~port =
  match Wire.connect ~timeout_s:5. ~host ~port with
  | exception _ -> false
  | fd ->
      let ok =
        match
          Wire.write_message ~timeout_s:5. fd Wire.Shutdown;
          Wire.read_message ~timeout_s:5. fd
        with
        | Wire.Done { ok; _ } -> ok
        | _ -> false
        | exception _ -> false
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      ok
