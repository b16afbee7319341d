open Fuzzyflow

(* ---------------- endpoints ---------------- *)

type endpoint = { host : string; port : int }

let endpoint_to_string e = Printf.sprintf "%s:%d" e.host e.port

let endpoint_of_string s =
  match String.rindex_opt s ':' with
  | None -> invalid_arg ("Supervisor.endpoint_of_string: missing port in " ^ s)
  | Some i -> (
      let host = String.sub s 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port when port > 0 && port < 65536 -> { host; port }
      | _ -> invalid_arg ("Supervisor.endpoint_of_string: bad port in " ^ s))

(* ---------------- failure taxonomy ---------------- *)

type failure_class =
  | Connect_refused of { detail : string }
  | Version_mismatch of { ours : int; theirs : int }
  | Disconnected of { during : string }
  | Decode_failure of { detail : string }
  | Hang of { waited_s : float }

let failure_class_name = function
  | Connect_refused _ -> "connect-refused"
  | Version_mismatch _ -> "version-mismatch"
  | Disconnected _ -> "disconnect"
  | Decode_failure _ -> "decode-failure"
  | Hang _ -> "hang"

(* ---------------- supervision policy ---------------- *)

type policy = {
  connect_timeout_s : float;
  heartbeat_s : float;
  hang_grace_s : float;
  max_failures : int;
  backoff_base_s : float;
  backoff_max_s : float;
}

let default_policy =
  {
    connect_timeout_s = 5.;
    heartbeat_s = 10.;
    hang_grace_s = 10.;
    max_failures = 3;
    backoff_base_s = 0.05;
    backoff_max_s = 2.;
  }

(* Bounded exponential backoff with deterministic jitter: the jitter fraction
   is FNV-1a over (endpoint, consecutive-failure count, instance seed) — the
   same seed construction as [Campaign.instance_seed] — so reconnect schedules
   are reproducible run to run, never synchronized across workers, and free of
   any wall-clock or PRNG state. *)
let backoff_delay ~policy ~ep ~failures ~seed =
  let exp = min (max 0 (failures - 1)) 16 in
  let base = Float.min (policy.backoff_base_s *. Float.pow 2. (float_of_int exp)) policy.backoff_max_s in
  let tag = Printf.sprintf "backoff:%s#%d" (endpoint_to_string ep) failures in
  let jitter = float_of_int (Campaign.instance_seed ~global:seed tag land 0xFFFF) /. 65536. in
  base *. (1. +. jitter)

(* ---------------- the worker side ---------------- *)

let listen_on ?host ~port () = Wire.listen_on ?host ~port ()

exception Deadline_exceeded

(* In-process deadline enforcement. The interpreter's own step limit bounds
   each trial; a one-shot SIGALRM bounds everything else. While [f] runs,
   the alarm calls [expire], which never returns: it raises
   [Deadline_exceeded], or replies and ends the process. An alarm that fired
   makes the result [Timed_out] even when code inside [f] caught the
   exception and went on to finish, so no handler in the instance can turn a
   timeout into a verdict. Any other escape (including Stack_overflow) is
   contained as a Crashed result. *)
let with_deadline ~deadline_s ~expire f =
  let armed = ref true and expired = ref false in
  let prev =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           if !armed then begin
             armed := false;
             expired := true;
             expire ()
           end))
  in
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = deadline_s });
  let r =
    (* the outer handler takes the one raise that can land just after [f]
       returned: [armed] is cleared before [expire] runs *)
    try
      match f () with
      | v -> Ok v
      | exception e -> Error (Campaign.Crashed { detail = Printexc.to_string e })
    with Deadline_exceeded -> Error (Campaign.Timed_out { deadline_s })
  in
  armed := false;
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
  Sys.set_signal Sys.sigalrm prev;
  if !expired then Error (Campaign.Timed_out { deadline_s }) else r

(* One assignment: run the instance in-process under the alarm-based
   deadline; [expire] receives the [Timed_out] reply from the alarm handler.
   The worker keeps one piece of state across assignments, the static
   delta's memo: it keys by content, so every gated instance on a program
   shares the unchanged program's half of its delta, every state its copy
   left unchanged and every dependence query asked before, and verdicts
   are memo-oblivious. Compiled programs
   live inside each instance. An assignment that timed out or crashed may
   have been interrupted in the middle of a table update, so it leaves the
   worker with a fresh memo. *)
let run_with_memo (memo : Analysis.Delta.memo ref) ~catalog ~expire (a : Wire.assignment) =
  let result r_status r_payload = Wire.Result { r_idx = a.Wire.a_idx; r_status; r_payload } in
  match
    List.find_opt (fun (x : Transforms.Xform.t) -> x.Transforms.Xform.name = a.Wire.a_xform) catalog
  with
  | None -> Wire.Refused { r_idx = a.Wire.a_idx; r_detail = "unknown transformation " ^ a.Wire.a_xform }
  | Some xform -> (
      match (Marshal.from_string a.Wire.a_graph 0 : Sdfg.Graph.t) with
      | exception _ -> Wire.Refused { r_idx = a.Wire.a_idx; r_detail = "undecodable program graph" }
      | graph -> (
          let thunk () =
            Campaign.run_instance ~memo:!memo ~config:a.Wire.a_config
              ~static_gate:a.Wire.a_static_gate ~certify_gate:a.Wire.a_certify_gate
              ~program:(a.Wire.a_program, graph) xform a.Wire.a_site
          in
          let deadline_s = a.Wire.a_deadline_s in
          let expire () = expire (result (Campaign.Timed_out { deadline_s }) None) in
          match with_deadline ~deadline_s ~expire thunk with
          | Ok ir -> result Campaign.Completed (Some ir)
          | Error status ->
              memo := Analysis.Delta.create_memo ();
              result status None))

let run_assignments ~catalog assignments =
  let memo = ref (Analysis.Delta.create_memo ()) in
  List.map
    (fun a ->
      let reply = run_with_memo memo ~catalog ~expire:(fun _ -> raise Deadline_exceeded) a in
      (reply, (Analysis.Delta.memo_stats !memo).baselines))
    assignments

let run_assignment ~catalog a = fst (List.hd (run_assignments ~catalog [ a ]))

(* The per-connection part every worker runs, local or remote: answer the
   version handshake, then serve heartbeats and assignments until the peer
   sends [Shutdown] or goes away. A local worker serves exactly this one
   connection, so at an assignment's deadline it writes the [Timed_out]
   reply and [_exit]s from the alarm handler: nothing in the instance can
   catch that. A remote worker's process outlives its connections, so its
   deadline raises instead; if the instance catches the exception and runs
   on, the dispatcher's hang check ends the connection. *)
let serve_connection ~exit_on_deadline memo ~catalog fd =
  let expire reply =
    if exit_on_deadline then begin
      (try Wire.write_message fd reply with _ -> ());
      Unix._exit 0
    end
    else raise Deadline_exceeded
  in
  match Wire.read_message ~timeout_s:30. fd with
  | Wire.Hello { proto } when proto = Wire.protocol_version ->
      Wire.write_message fd (Wire.Hello_ack { proto = Wire.protocol_version });
      let stop = ref false in
      while not !stop do
        match Wire.read_message fd with
        | Wire.Ping x -> Wire.write_message fd (Wire.Pong x)
        | Wire.Shutdown -> stop := true
        | Wire.Assign a -> Wire.write_message fd (run_with_memo memo ~catalog ~expire a)
        | _ -> ()
      done
  | _ -> ()

let serve_worker ?(once = false) ~catalog sock =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* one memo for the whole worker process: assignments across connections
     share the unchanged programs' halves of their deltas *)
  let memo = ref (Analysis.Delta.create_memo ()) in
  let continue = ref true in
  while !continue do
    (match Unix.accept sock with
    | client, _ ->
        (try serve_connection ~exit_on_deadline:false memo ~catalog client with
        | Wire.Closed | Wire.Timeout | Wire.Protocol_error _ | Wire.Bad_version _
        | Unix.Unix_error _
        ->
          ());
        (try Unix.close client with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if once then continue := false
  done

(* ---------------- local workers ---------------- *)

(* A local worker keeps only its own socket and the standard streams. An
   inherited end of a sibling's socketpair (or of a remote connection)
   would keep that peer from ever seeing EOF once the campaign process
   dies, and the siblings would live on as orphans. On Unix a
   [Unix.file_descr] is the descriptor number. *)
let close_inherited ~keep =
  let keep : int = Obj.magic keep in
  let open_fds =
    match Sys.readdir "/proc/self/fd" with
    | names -> List.filter_map int_of_string_opt (Array.to_list names)
    | exception Sys_error _ -> List.init 1024 Fun.id
  in
  List.iter
    (fun n ->
      if n > 2 && n <> keep then try Unix.close (Obj.magic n) with Unix.Unix_error _ -> ())
    open_fds

(* Fork one local worker on a fresh socketpair and return (pid, our end).
   The child serves exactly one connection — the same code a remote worker
   runs per connection — and [_exit]s, never running the parent's exit
   hooks or flushing its duplicated channel buffers. Fork and socketpair
   errors raise: they are the host's failures, not a worker's. *)
let spawn_local ~catalog =
  let ours, theirs = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      close_inherited ~keep:theirs;
      (try
         serve_connection ~exit_on_deadline:true
           (ref (Analysis.Delta.create_memo ()))
           ~catalog theirs
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close theirs;
      (pid, ours)
  | exception e ->
      Unix.close ours;
      Unix.close theirs;
      raise e

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error _ -> ()

(* ---------------- per-worker supervision state ---------------- *)

type kind = Remote of endpoint | Local of { mutable pid : int option }

type wstate = W_disconnected | W_idle | W_busy of int  (** item index in flight *)

type wrk = {
  kind : kind;
  name : string;
  slot : int;  (** telemetry slot *)
  mutable fd : Unix.file_descr option;
  mutable state : wstate;
  mutable failures : int;  (** consecutive; reset by a delivered result *)
  mutable next_try : float;  (** earliest reconnect attempt; [infinity] once quarantined *)
  mutable busy_since : float;
  mutable last_seed : int;  (** seed of the last assigned instance; jitter source *)
  mutable idle_since : float;
  mutable ping_sent : float;  (** 0. = no ping outstanding *)
}

(* ---------------- the dispatch loop ---------------- *)

let now () = Unix.gettimeofday ()

let run ~(policy : policy) ~on_failure ~tick ~workers ~j ~catalog ~deadline_s
    ~(telemetry : Telemetry.t) ~on_done (items : Campaign.item array) =
  let n = Array.length items in
  let graph_blob =
    (* one Marshal per distinct program, shared across its instances;
       program names are unique within a campaign *)
    let memo = Hashtbl.create 8 in
    fun (it : Campaign.item) ->
      match Hashtbl.find_opt memo it.program_name with
      | Some b -> b
      | None ->
          let b = Marshal.to_string it.program [] in
          Hashtbl.add memo it.program_name b;
          b
  in
  let assignment_of i =
    let it = items.(i) in
    {
      Wire.a_idx = i;
      a_program = it.program_name;
      a_graph = graph_blob it;
      a_xform = it.xform.Transforms.Xform.name;
      a_site = it.site;
      a_config = it.config;
      a_static_gate = it.static_gate;
      a_certify_gate = it.certify_gate;
      a_deadline_s = deadline_s;
    }
  in
  let pending = Queue.create () in
  Array.iteri (fun i _ -> Queue.push i pending) items;
  let losses = Array.make n 0 in
  let remaining = ref n in
  (* a slot that fails before its first assignment draws its backoff
     jitter from the first item's seed *)
  let first_seed = if n = 0 then 0 else items.(0).config.Difftest.seed in
  let slot_of kind name slot =
    {
      kind;
      name;
      slot;
      fd = None;
      state = W_disconnected;
      failures = 0;
      next_try = 0.;
      busy_since = 0.;
      last_seed = first_seed;
      idle_since = 0.;
      ping_sent = 0.;
    }
  in
  (* remote slots first, so faults aimed at a remote connection still meet
     the campaign's first assignments *)
  let remotes = List.mapi (fun s ep -> slot_of (Remote ep) (endpoint_to_string ep) s) workers in
  let nr = List.length remotes in
  let locals =
    List.init (max 1 j) (fun k ->
        slot_of (Local { pid = None }) (Printf.sprintf "local#%d" k) (nr + k))
  in
  let ws = remotes @ locals in
  (* a local worker is always SIGKILLed and reaped when its connection
     closes, so none outlives the campaign or lingers as a zombie *)
  let close_conn w =
    (match w.fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    w.fd <- None;
    match w.kind with
    | Local ({ pid = Some pid } as l) ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap pid;
        l.pid <- None
    | Local { pid = None } | Remote _ -> ()
  in
  let settle i result =
    decr remaining;
    on_done i result
  in
  (* Every failure is classified, counted, and drives the respawn (local) or
     backoff / quarantine (remote) state machine. A disconnect or hang
     mid-instance is a worker loss: the instance is requeued under its
     original seed — a rerun anywhere produces the identical outcome. Only
     local losses count toward the poison rule (remote ones are bounded by
     quarantine, and the local slots always remain): an instance that has
     lost [max_failures] local workers settles as [Crashed] with a detail
     that names no worker, so its journal line is the same in any topology
     and no remote failure can change a verdict. *)
  let fail_worker w cls =
    (match w.state with
    | W_busy i ->
        Telemetry.idle telemetry ~slot:w.slot;
        (match cls with
        | Disconnected _ | Hang _ -> (
            Telemetry.lost_worker telemetry;
            match w.kind with Local _ -> losses.(i) <- losses.(i) + 1 | Remote _ -> ())
        | Connect_refused _ | Version_mismatch _ | Decode_failure _ -> ());
        if losses.(i) >= policy.max_failures then
          let detail = Printf.sprintf "worker lost %d times on this instance" policy.max_failures in
          settle i (Error (Campaign.Crashed { detail }))
        else Queue.push i pending
    | W_disconnected | W_idle -> ());
    close_conn w;
    w.state <- W_disconnected;
    on_failure w.name cls;
    Telemetry.retry telemetry;
    match w.kind with
    | Local _ -> ()
    | Remote ep ->
        w.failures <- w.failures + 1;
        if w.failures >= policy.max_failures then begin
          w.next_try <- infinity;
          Telemetry.quarantine telemetry
        end
        else
          w.next_try <- now () +. backoff_delay ~policy ~ep ~failures:w.failures ~seed:w.last_seed
  in
  let handshake fd =
    Wire.write_message ~timeout_s:policy.connect_timeout_s fd
      (Wire.Hello { proto = Wire.protocol_version });
    match Wire.read_message ~timeout_s:policy.connect_timeout_s fd with
    | Wire.Hello_ack { proto } when proto = Wire.protocol_version -> ()
    | Wire.Hello_ack { proto } ->
        raise (Wire.Bad_version { ours = Wire.protocol_version; theirs = proto })
    | _ -> raise (Wire.Protocol_error "unexpected handshake reply")
  in
  let try_connect w =
    match
      let fd =
        match w.kind with
        | Remote ep -> Wire.connect ~timeout_s:policy.connect_timeout_s ~host:ep.host ~port:ep.port
        | Local l ->
            let pid, fd = spawn_local ~catalog in
            l.pid <- Some pid;
            fd
      in
      w.fd <- Some fd;
      handshake fd
    with
    | () ->
        w.state <- W_idle;
        w.idle_since <- now ();
        w.ping_sent <- 0.
    (* a local slot's fork or socketpair error is the host's failure, not a
       worker's: it raises out of the campaign *)
    | exception Unix.Unix_error (err, _, _)
      when (match w.kind with Remote _ -> true | Local _ -> w.fd <> None) ->
        fail_worker w (Connect_refused { detail = Unix.error_message err })
    | exception Wire.Bad_version { ours; theirs } ->
        fail_worker w (Version_mismatch { ours; theirs })
    | exception Wire.Timeout -> fail_worker w (Hang { waited_s = policy.connect_timeout_s })
    | exception Wire.Closed -> fail_worker w (Disconnected { during = "handshake" })
    | exception Wire.Protocol_error detail -> fail_worker w (Decode_failure { detail })
  in
  let assign w fd i =
    w.last_seed <- items.(i).config.Difftest.seed;
    match Wire.write_message ~timeout_s:policy.heartbeat_s fd (Wire.Assign (assignment_of i)) with
    | () ->
        w.state <- W_busy i;
        w.busy_since <- now ();
        Telemetry.running telemetry ~slot:w.slot items.(i).id
    | exception (Wire.Closed | Unix.Unix_error _) ->
        Queue.push i pending;
        fail_worker w (Disconnected { during = "assign" })
    | exception Wire.Timeout ->
        Queue.push i pending;
        fail_worker w (Hang { waited_s = policy.heartbeat_s })
  in
  let deliver w i result =
    w.state <- W_idle;
    w.idle_since <- now ();
    w.ping_sent <- 0.;
    w.failures <- 0;
    Telemetry.idle telemetry ~slot:w.slot;
    settle i result
  in
  let handle_message w =
    match w.fd with
    | None -> ()
    | Some fd -> (
        match Wire.read_message ~timeout_s:policy.heartbeat_s fd with
        | Wire.Result { r_idx; r_status; r_payload } -> (
            match (w.state, r_status, r_payload) with
            | W_busy i, Campaign.Completed, Some ir when i = r_idx -> deliver w i (Ok ir)
            | W_busy i, Campaign.Completed, None when i = r_idx ->
                fail_worker w (Decode_failure { detail = "completed result carried no payload" })
            | W_busy i, ((Campaign.Timed_out _ | Campaign.Crashed _) as status), _ when i = r_idx -> (
                deliver w i (Error status);
                (* a local worker ends its own process at the deadline: reap
                   it now, and the slot respawns on demand *)
                match (w.kind, status) with
                | Local _, Campaign.Timed_out _ ->
                    close_conn w;
                    w.state <- W_disconnected
                | _ -> ())
            | _ ->
                fail_worker w
                  (Decode_failure
                     { detail = Printf.sprintf "result for unexpected instance %d" r_idx }))
        | Wire.Refused { r_detail; _ } ->
            (* the worker is alive but cannot run this assignment: the
               instance is requeued, and repeated refusals quarantine it *)
            fail_worker w (Decode_failure { detail = "assignment refused: " ^ r_detail })
        | Wire.Pong _ ->
            w.ping_sent <- 0.;
            w.idle_since <- now ()
        | _ -> fail_worker w (Decode_failure { detail = "unexpected message" })
        | exception Wire.Closed ->
            fail_worker w
              (Disconnected
                 { during = (match w.state with W_busy _ -> "instance" | _ -> "idle") })
        | exception Wire.Timeout -> fail_worker w (Hang { waited_s = policy.heartbeat_s })
        | exception Wire.Bad_version { ours; theirs } ->
            fail_worker w (Version_mismatch { ours; theirs })
        | exception Wire.Protocol_error detail -> fail_worker w (Decode_failure { detail })
        | exception Unix.Unix_error _ -> fail_worker w (Disconnected { during = "read" }))
  in
  let health_check w =
    let t = now () in
    match (w.fd, w.state) with
    | Some _, W_busy _ ->
        if t -. w.busy_since > deadline_s +. policy.hang_grace_s then
          fail_worker w (Hang { waited_s = t -. w.busy_since })
    | Some fd, W_idle ->
        if w.ping_sent > 0. then begin
          if t -. w.ping_sent > policy.heartbeat_s then
            fail_worker w (Hang { waited_s = t -. w.ping_sent })
        end
        else if t -. w.idle_since > policy.heartbeat_s then begin
          match Wire.write_message ~timeout_s:1.0 fd (Wire.Ping 0) with
          | () -> w.ping_sent <- t
          | exception (Wire.Closed | Unix.Unix_error _) ->
              fail_worker w (Disconnected { during = "heartbeat" })
          | exception Wire.Timeout -> fail_worker w (Hang { waited_s = 1.0 })
        end
    | _ -> ()
  in
  let idle_slots () = List.length (List.filter (fun w -> w.fd <> None && w.state = W_idle) ws) in
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun w ->
          (match (w.kind, w.fd) with
          | Remote _, Some fd -> ( try Wire.write_message ~timeout_s:0.5 fd Wire.Shutdown with _ -> ())
          | _ -> ());
          close_conn w)
        ws;
      Sys.set_signal Sys.sigpipe prev_sigpipe)
  @@ fun () ->
  while !remaining > 0 do
    tick ();
    let t = now () in
    (* (re)connect pass: a slot opens only while pending work outnumbers
       the idle connections, so a small campaign forks no spare workers *)
    List.iter
      (fun w ->
        if w.fd = None && t >= w.next_try
           && Queue.length pending > idle_slots ()
        then try_connect w)
      ws;
    List.iter
      (fun w ->
        match (w.fd, w.state) with
        | Some fd, W_idle when not (Queue.is_empty pending) ->
            assign w fd (Queue.pop pending)
        | _ -> ())
      ws;
    (* wait for traffic *)
    let fds = List.filter_map (fun w -> w.fd) ws in
    (if fds = [] then Unix.sleepf 0.02
     else
       match Unix.select fds [] [] 0.05 with
       | readable, _, _ ->
           List.iter
             (fun w ->
               match w.fd with
               | Some fd when List.memq fd readable -> handle_message w
               | _ -> ())
             ws
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    List.iter (fun w -> if w.fd <> None then health_check w) ws
  done;
  tick ()
