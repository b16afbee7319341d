open Fuzzyflow

type t = {
  total : int;
  j : int;
  progress : bool;
  started : float;
  mutable seen : Campaign.outcome list;  (** every outcome recorded or resumed *)
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
    seen = [];
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

let summary t : Journal.footer =
  let s = Campaign.tally t.seen and wall = wall_s t in
  (* the rate covers the instances this process ran, not the replayed ones *)
  let ran = s.instances - t.resumed_n in
  {
    Journal.total = s.instances;
    failed = s.failed + s.killed;
    proved = s.proved;
    killed = s.killed;
    trials_spent = s.trials;
    wall_s = wall;
    instances_per_s = (if wall > 0. then float_of_int ran /. wall else 0.);
    retries = t.retries;
    quarantined = t.quarantined_n;
    worker_lost = t.worker_lost;
    recovered_records = t.recovered;
  }

let render t =
  let f = summary t and s = Campaign.tally t.seen in
  let busy = Array.to_list t.workers |> List.filter_map (fun w -> w) in
  let worker_note =
    match busy with
    | [] -> ""
    | w :: _ ->
        let extra = List.length busy - 1 in
        if extra > 0 then Printf.sprintf "  [%s +%d]" w extra else Printf.sprintf "  [%s]" w
  in
  let dep_note =
    if s.dep_pairs = 0 then "" else Printf.sprintf "  deps %d/%d" s.dep_decided s.dep_pairs
  in
  let dist_note =
    if t.retries = 0 && t.quarantined_n = 0 && t.worker_lost = 0 then ""
    else
      Printf.sprintf "  retries %d  quarantined %d  lost %d" t.retries t.quarantined_n
        t.worker_lost
  in
  Printf.sprintf
    "[%d/%d] %.1f inst/s  failed %d  proved %d  killed %d  trials %d  cases %d  resumed %d%s%s%s"
    f.total t.total f.instances_per_s f.failed f.proved f.killed f.trials_spent t.cases_saved
    t.resumed_n dep_note dist_note worker_note

let emit t =
  if t.progress then begin
    let now = Unix.gettimeofday () in
    if now -. t.last_render > 0.1 then begin
      t.last_render <- now;
      Printf.eprintf "\r\027[K%s%!" (render t)
    end
  end

let running t ~slot id = if slot < Array.length t.workers then t.workers.(slot) <- Some id

let idle t ~slot = if slot < Array.length t.workers then t.workers.(slot) <- None

let record t o =
  t.seen <- o :: t.seen;
  emit t

let case_saved t = t.cases_saved <- t.cases_saved + 1

let resumed t o =
  t.resumed_n <- t.resumed_n + 1;
  record t o

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

(* Live JSON snapshot for the service's HTTP telemetry endpoint. *)
let snapshot t =
  let f = summary t in
  let num n = Journal.Json.Num (float_of_int n) in
  Journal.Json.Obj
    [
      ("completed", num f.Journal.total);
      ("total", num t.total);
      ("failed", num f.Journal.failed);
      ("proved", num f.Journal.proved);
      ("killed", num f.Journal.killed);
      ("trials_spent", num f.Journal.trials_spent);
      ("cases_saved", num t.cases_saved);
      ("resumed", num t.resumed_n);
      ("retries", num f.Journal.retries);
      ("quarantined", num f.Journal.quarantined);
      ("worker_lost", num f.Journal.worker_lost);
      ("recovered_records", num f.Journal.recovered_records);
      ("wall_s", Journal.Json.Num f.Journal.wall_s);
      ("instances_per_s", Journal.Json.Num f.Journal.instances_per_s);
    ]

let finish t = if t.progress then Printf.eprintf "\r\027[K%s\n%!" (render t)
