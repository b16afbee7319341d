open Fuzzyflow

type t = {
  total : int;
  j : int;
  progress : bool;
  started : float;
  mutable completed : int;
  mutable failed : int;
  mutable proved : int;
  mutable killed : int;
  mutable trials : int;
  mutable dep_pairs : int;
  mutable dep_decided : int;
  mutable cases_saved : int;
  mutable resumed_n : int;
  mutable retries : int;
  mutable quarantined_n : int;
  mutable worker_lost : int;
  mutable recovered : int;
  mutable last_render : float;
  workers : string option array;  (** instance id currently on each slot *)
}

let create ?(progress = true) ~total ~j () =
  {
    total;
    j = max 1 j;
    progress;
    started = Unix.gettimeofday ();
    completed = 0;
    failed = 0;
    proved = 0;
    killed = 0;
    trials = 0;
    dep_pairs = 0;
    dep_decided = 0;
    cases_saved = 0;
    resumed_n = 0;
    retries = 0;
    quarantined_n = 0;
    worker_lost = 0;
    recovered = 0;
    last_render = 0.;
    workers = Array.make (max 1 j) None;
  }

let wall_s t = Unix.gettimeofday () -. t.started

let render t =
  let wall = wall_s t in
  let rate = if wall > 0. then float_of_int t.completed /. wall else 0. in
  let busy = Array.to_list t.workers |> List.filter_map (fun w -> w) in
  let worker_note =
    match busy with
    | [] -> ""
    | w :: _ ->
        let extra = List.length busy - 1 in
        if extra > 0 then Printf.sprintf "  [%s +%d]" w extra else Printf.sprintf "  [%s]" w
  in
  let dep_note =
    if t.dep_pairs = 0 then ""
    else Printf.sprintf "  deps %d/%d" t.dep_decided t.dep_pairs
  in
  let dist_note =
    if t.retries = 0 && t.quarantined_n = 0 && t.worker_lost = 0 then ""
    else
      Printf.sprintf "  retries %d  quarantined %d  lost %d" t.retries t.quarantined_n
        t.worker_lost
  in
  Printf.sprintf
    "[%d/%d] %.1f inst/s  failed %d  proved %d  killed %d  trials %d  cases %d  resumed %d%s%s%s"
    t.completed t.total rate t.failed t.proved t.killed t.trials t.cases_saved t.resumed_n
    dep_note dist_note worker_note

let emit ?(force = false) t =
  if t.progress then begin
    let now = Unix.gettimeofday () in
    if force || now -. t.last_render > 0.1 then begin
      t.last_render <- now;
      Printf.eprintf "\r\027[K%s%!" (render t)
    end
  end

let running t ~slot id = if slot < Array.length t.workers then t.workers.(slot) <- Some id

let idle t ~slot = if slot < Array.length t.workers then t.workers.(slot) <- None

let record t (o : Campaign.outcome) =
  t.completed <- t.completed + 1;
  t.trials <- t.trials + o.o_trials_run;
  t.dep_pairs <- t.dep_pairs + o.o_dep_pairs;
  t.dep_decided <- t.dep_decided + o.o_dep_decided;
  (match o.o_verdict with
  | Campaign.O_failed _ -> t.failed <- t.failed + 1
  | Campaign.O_proved -> t.proved <- t.proved + 1
  | _ -> ());
  (match o.o_status with Campaign.Completed -> () | _ -> t.killed <- t.killed + 1);
  emit ~force:(t.completed = t.total) t

let case_saved t = t.cases_saved <- t.cases_saved + 1

let resumed t =
  t.resumed_n <- t.resumed_n + 1;
  t.completed <- t.completed + 1;
  emit t

let retry t =
  t.retries <- t.retries + 1;
  emit t

let quarantine t =
  t.quarantined_n <- t.quarantined_n + 1;
  emit t

let lost_worker t =
  t.worker_lost <- t.worker_lost + 1;
  emit t

let recovered_records t n = t.recovered <- t.recovered + n

let summary t : Journal.footer =
  let wall = wall_s t in
  {
    Journal.total = t.completed;
    failed = t.failed + t.killed;
    proved = t.proved;
    killed = t.killed;
    trials_spent = t.trials;
    wall_s = wall;
    instances_per_s = (if wall > 0. then float_of_int t.completed /. wall else 0.);
    retries = t.retries;
    quarantined = t.quarantined_n;
    worker_lost = t.worker_lost;
    recovered_records = t.recovered;
  }

(* Live JSON snapshot for the service's HTTP telemetry endpoint. *)
let snapshot t =
  let f = summary t in
  Journal.Json.Obj
    [
      ("completed", Journal.Json.Num (float_of_int t.completed));
      ("total", Journal.Json.Num (float_of_int t.total));
      ("failed", Journal.Json.Num (float_of_int t.failed));
      ("proved", Journal.Json.Num (float_of_int t.proved));
      ("killed", Journal.Json.Num (float_of_int t.killed));
      ("trials_spent", Journal.Json.Num (float_of_int t.trials));
      ("cases_saved", Journal.Json.Num (float_of_int t.cases_saved));
      ("resumed", Journal.Json.Num (float_of_int t.resumed_n));
      ("retries", Journal.Json.Num (float_of_int f.Journal.retries));
      ("quarantined", Journal.Json.Num (float_of_int f.Journal.quarantined));
      ("worker_lost", Journal.Json.Num (float_of_int f.Journal.worker_lost));
      ("recovered_records", Journal.Json.Num (float_of_int f.Journal.recovered_records));
      ("wall_s", Journal.Json.Num f.Journal.wall_s);
      ("instances_per_s", Journal.Json.Num f.Journal.instances_per_s);
    ]

let finish t = if t.progress then Printf.eprintf "\r\027[K%s\n%!" (render t)
