open Fuzzyflow

(* What one probe reports: for a difftest probe, the verdict of its campaign
   instance plus the evidence the parent derives from it. *)
type probe_result =
  | R_verdict of {
      klass : Difftest.failure_class option;  (** [None]: the oracle saw nothing *)
      first_trial : int;
      failing_trials : int;
      localized : bool option;
      audit_flagged : bool option;
          (** change-set audit verdict on the (mutated) transform; [None]
              when the audit does not apply to this probe shape *)
      dep_witness : (string * int) list option;
          (** concrete valuation from the exact dependence tier (a refutation
              model or a race finding's [dep_witness]); [None] when the tier
              produced no witness or does not apply *)
      dep_confirmed : bool option;
          (** did the witness, replayed as a one-trial directed fuzz seed,
              reproduce the failure dynamically? *)
      detail : string;
    }
  | R_mpi of {
      fault : string option;
      data_ok : bool;
      healed : int;
      retransmits : int;
      backoff : int;
    }
  | R_net of {
      identical : bool;
          (** chaos journal's instance lines byte-identical to the same-seed
              local reference *)
      first_failure : string option;
          (** the first failure class the supervisor observed: the injected
              fault itself. Later failures (reconnects to a dead worker) are
              consequences whose timing varies, so they stay out of the
              report, which is byte-identical across reruns *)
    }

type outcome =
  | Detected of { got : string; first_trial : int }
  | Missed of { detail : string }
  | Misclassified of { expected : string; got : string }
  | Quarantined of { detail : string }

let outcome_name = function
  | Detected _ -> "detected"
  | Missed _ -> "missed"
  | Misclassified _ -> "misclassified"
  | Quarantined _ -> "quarantined"

type row = {
  spec : Plan.spec;
  outcome : outcome;
  attempts : int;
  localized : bool option;
  audit : bool option;  (** change-set audit verdict, [None] when not applicable *)
  dep : bool option;
      (** exact dependence channel: [Some true] — a witness was found and its
          directed replay reproduced the failure; [Some false] — a witness was
          found but did not reproduce; [None] — no witness / not applicable *)
}

type report = { seed : int; trials : int; rows : row list }

(* ---- difftest probes as campaign instances ------------------------------ *)

let verdict_result ?(localized = None) ?(audit_flagged = None) ?(dep_witness = None)
    ?(dep_confirmed = None) (report : Difftest.report option) =
  let klass, first_trial, failing_trials, detail =
    match report with
    | Some { Difftest.verdict = Difftest.Fail f; _ } ->
        ( Some f.Difftest.klass,
          f.Difftest.first_trial,
          f.Difftest.failing_trials,
          Format.asprintf "%a" Difftest.pp_failure f.Difftest.kind )
    | Some { Difftest.verdict = Difftest.Pass; _ } -> (None, 0, 0, "all trials agree")
    | None -> (None, 0, 0, "proved equivalent, no trials")
  in
  R_verdict
    {
      klass;
      first_trial;
      failing_trials;
      localized;
      audit_flagged;
      dep_witness;
      dep_confirmed;
      detail;
    }

let no_verdict detail =
  R_verdict
    {
      klass = None;
      first_trial = 0;
      failing_trials = 0;
      localized = None;
      audit_flagged = None;
      dep_witness = None;
      dep_confirmed = None;
      detail;
    }

(* Min-cut capacities and overlap checks need concrete symbol values; bind
   every program parameter to a small extent, like the CLI's -D N=8. *)
let concretize_all g = List.map (fun s -> (s, 8)) (Sdfg.Graph.all_free_syms g)

(* A transform probe's gated instance already holds the static evidence:
   the change-set audit's findings and the exact dependence tier's witness
   (the translation validator's refutation model, or a race finding's
   solver witness). The directed replay and localization run here. *)
let transform_result ~config ~expected_containers g mutated site (ir : Campaign.instance_result) =
  (* [verdict] is [None] only when the transformation did not apply *)
  let audit_flagged =
    Option.map
      (fun _ ->
        List.exists
          (fun (f : Analysis.Report.finding) -> f.Analysis.Report.pass = Analysis.Report.Change_set)
          ir.Campaign.static)
      ir.Campaign.verdict
  in
  let dep_witness =
    match ir.Campaign.verdict with
    | Some (Analysis.Equiv.Refuted w) -> Some w.Analysis.Equiv.valuation
    | _ -> List.find_map Analysis.Races.witness_of_finding ir.Campaign.static
  in
  (* replay the witness as a directed fuzz seed: one trial pinned to the
     witness valuation must reproduce the failure *)
  let dep_confirmed =
    match dep_witness with
    | None -> None
    | Some valuation -> (
        try
          let applied = Transforms.Xform.apply_copy mutated g site in
          match (Difftest.probe ~config ~valuation g mutated site applied).Difftest.verdict with
          | Difftest.Fail _ -> Some true
          | Difftest.Pass -> Some false
        with _ -> None)
  in
  let localized =
    match ir.Campaign.report with
    | Some ({ Difftest.verdict = Difftest.Fail { kind = Difftest.Numerical _; _ }; _ } as report)
      -> (
        try
          match Localize.of_report ~config ~original:g ~xform:mutated report with
          | Some (_ :: _ as divs) ->
              Some
                (List.exists
                   (fun (d : Localize.divergence) ->
                     List.mem d.Localize.container expected_containers)
                   divs)
          | Some [] | None -> None
        with _ -> None)
    | _ -> None
  in
  verdict_result ~localized ~audit_flagged ~dep_witness ~dep_confirmed ir.Campaign.report

(* Fixed MPI scenario: scatter + allreduce + bcast + gather, enough traffic
   that every collective is attackable (see Plan.mpi_specs). *)
let mpi_scenario ?policy ~ranks ~len () =
  let src = Array.init (ranks * len) (fun i -> 1.0 +. (0.25 *. float_of_int i)) in
  let bufs = Array.init ranks (fun _ -> Array.make len 0.) in
  let dst = Array.make (ranks * len) 0. in
  let c = Mpi_sim.Mpi.create ?policy ranks in
  Mpi_sim.Mpi.scatter c ~root:0 ~src bufs;
  Mpi_sim.Mpi.allreduce_sum c bufs;
  Mpi_sim.Mpi.bcast c ~root:0 bufs;
  Mpi_sim.Mpi.gather c ~root:0 bufs ~dst;
  (dst, Mpi_sim.Mpi.stats c)

let mpi_probe ~policy ~ranks ~len =
  let clean, _ = mpi_scenario ~ranks ~len () in
  match mpi_scenario ~policy ~ranks ~len () with
  | faulty, (st : Mpi_sim.Mpi.stats) ->
      R_mpi
        {
          fault = None;
          data_ok = faulty = clean;
          healed = st.Mpi_sim.Mpi.healed;
          retransmits = st.Mpi_sim.Mpi.retransmits;
          backoff = st.Mpi_sim.Mpi.backoff;
        }
  | exception Mpi_sim.Mpi.Mpi_fault { kind; message; retries } ->
      R_mpi
        {
          fault =
            Some
              (Printf.sprintf "%s@%d after %d retries"
                 (Mpi_sim.Mpi.fault_kind_to_string kind)
                 message retries);
          data_ok = false;
          healed = 0;
          retransmits = retries;
          backoff = 0;
        }

(* ---- network / distributed-service chaos probe --------------------------- *)

let instance_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       if String.length l >= 18 && String.sub l 0 18 = {|{"type":"instance"|} then
         lines := l :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

(* Two campaigns over the same tiny workload set and seed: a local-only
   reference, then the same campaign with one remote worker process added —
   fronted by the fault-injecting proxy and/or SIGKILLing itself inside its
   first instance, per the spec. The remote slot takes the first
   assignment, so the fault meets live traffic. The probe's only
   quantitative claim is byte-identity of the journals' instance lines; the
   first failure class observed is qualitative evidence that the fault
   armed. *)
let net_probe ~trials ~spec_seed ~net ~kill_worker ~workloads =
  let programs = List.map (fun w -> (w, Plan.workload_by_name w)) workloads in
  let xforms =
    match Transforms.Registry.all_correct () with
    | a :: b :: _ -> [ a; b ]
    | l -> l
  in
  let config = { Difftest.default_config with trials; seed = spec_seed } in
  let base =
    {
      Engine.Worker.default_options with
      deadline_s = 20.;
      limit_per = Some 2;
    }
  in
  let journal_a = Filename.temp_file "ffnet_ref" ".jsonl" in
  let journal_b = Filename.temp_file "ffnet_chaos" ".jsonl" in
  let worker_sock, worker_port = Engine.Supervisor.listen_on ~port:0 () in
  let worker_catalog =
    if not kill_worker then xforms
    else
      List.map
        (fun (x : Transforms.Xform.t) ->
          {
            x with
            Transforms.Xform.apply =
              (fun g site ->
                Unix.kill (Unix.getpid ()) Sys.sigkill;
                x.Transforms.Xform.apply g site);
          })
        xforms
  in
  let worker_pid =
    match Unix.fork () with
    | 0 ->
        (try Engine.Supervisor.serve_worker ~catalog:worker_catalog worker_sock with _ -> ());
        Unix._exit 0
    | pid ->
        (try Unix.close worker_sock with Unix.Unix_error _ -> ());
        pid
  in
  let proxy = Option.map (fun p -> Netfault.start ~policy:p ~target_port:worker_port ()) net in
  let cleanup () =
    (try Unix.kill worker_pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] worker_pid) with Unix.Unix_error _ -> ());
    Option.iter Netfault.stop proxy;
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ journal_a; journal_b ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  ignore
    (Engine.Worker.run_campaign
       ~options:{ base with journal_path = Some journal_a }
       ~config programs xforms);
  let first_failure = ref None in
  let on_failure _ cls =
    if !first_failure = None then first_failure := Some (Engine.Supervisor.failure_class_name cls)
  in
  let policy =
    {
      Engine.Supervisor.connect_timeout_s = 2.;
      heartbeat_s = 2.;
      hang_grace_s = 2.;
      max_failures = 2;
      backoff_base_s = 0.05;
      backoff_max_s = 0.2;
    }
  in
  let port = match proxy with Some p -> p.Netfault.port | None -> worker_port in
  ignore
    (Engine.Worker.run_campaign
       ~options:
         {
           base with
           journal_path = Some journal_b;
           workers = [ { Engine.Supervisor.host = "127.0.0.1"; port } ];
           policy;
           on_failure;
         }
       ~config programs xforms);
  let identical = instance_lines journal_a = instance_lines journal_b in
  R_net { identical; first_failure = !first_failure }

(* How a spec is probed. A difftest probe is a campaign instance — the
   spec's workload, its transformation (the identity carrier or the mutated
   transform) and its site, under the spec's config — whose result the
   parent turns into a probe result. MPI and net probes, and a spec with no
   instance to run, are computed in the parent. *)
type probe =
  | Instance of Campaign.item * (Campaign.instance_result -> probe_result)
  | Parent of (unit -> probe_result)

let probe_of ~trials ~seed (spec : Plan.spec) =
  let spec_seed = Campaign.instance_seed ~global:seed spec.Plan.id in
  let config g =
    { Difftest.default_config with trials; seed = spec_seed; concretization = concretize_all g }
  in
  let instance ~workload g xform site ~gates config derive =
    Instance
      ( {
          Campaign.id = spec.Plan.id;
          program_name = workload;
          program = g;
          xform;
          site;
          config;
          static_gate = gates;
          certify_gate = gates;
        },
        derive )
  in
  match spec.Plan.payload with
  | Plan.Interp_fault { workload; inject } -> (
      let g = Plan.workload_by_name workload in
      let x = Mutate.identity () in
      match x.Transforms.Xform.find g with
      | [] -> Parent (fun () -> no_verdict "no site")
      | site :: _ ->
          (* gates off: the identity is certifiable, and the certify gate
             would skip its trials *)
          instance ~workload g x site ~gates:false
            { (config g) with inject_transformed = Some inject }
            (fun ir -> verdict_result ir.Campaign.report))
  | Plan.Transform_fault { workload; xform; kind; mutation_seed; site; expected_containers } -> (
      let g = Plan.workload_by_name workload in
      match Transforms.Registry.by_name (Transforms.Registry.all_correct ()) xform with
      | None -> Parent (fun () -> no_verdict "no such transform")
      | Some base ->
          let mutated = Mutate.seed_bug ~seed:mutation_seed kind base in
          let config = config g in
          instance ~workload g mutated site ~gates:true config
            (transform_result ~config ~expected_containers g mutated site))
  | Plan.Mpi_disturbance { policy; ranks; payload_len } ->
      Parent (fun () -> mpi_probe ~policy ~ranks ~len:payload_len)
  | Plan.Net_disturbance { net; kill_worker; workloads } ->
      Parent (fun () -> net_probe ~trials ~spec_seed ~net ~kill_worker ~workloads)

let probe_spec ~trials ~seed spec =
  match probe_of ~trials ~seed spec with
  | Parent f -> f ()
  | Instance (it, derive) ->
      derive
        (Campaign.run_instance ~config:it.config ~static_gate:it.static_gate
           ~certify_gate:it.certify_gate ~program:(it.program_name, it.program) it.xform it.site)

(* ---- classification ------------------------------------------------------ *)

let classify (spec : Plan.spec) (r : probe_result) =
  match (spec.Plan.expect, r) with
  (* the injected defect may be caught statically (the change-set audit sees
     the mutated transform's declaration no longer covers its true diff)
     even when every fuzz trial happens to agree *)
  | ( (Plan.Must_semantics | Plan.Must_detect),
      R_verdict { klass = None; dep_confirmed = Some true; _ } ) ->
      (* the fuzz budget missed it, but the exact dependence tier produced a
         witness whose directed replay failed — detection with a proof *)
      Detected { got = "dependence witness"; first_trial = 0 }
  | ( (Plan.Must_semantics | Plan.Must_detect),
      R_verdict { klass = None; audit_flagged = Some true; _ } ) ->
      Detected { got = "change-set audit"; first_trial = 0 }
  | (Plan.Must_semantics | Plan.Must_detect), R_verdict { klass = None; detail; _ } ->
      Missed { detail }
  | Plan.Must_semantics, R_verdict { klass = Some Difftest.Semantics; first_trial; _ } ->
      Detected { got = "semantic change"; first_trial }
  | Plan.Must_semantics, R_verdict { klass = Some k; _ } ->
      Misclassified { expected = "semantic change"; got = Difftest.class_to_string k }
  | Plan.Must_detect, R_verdict { klass = Some k; first_trial; _ } ->
      Detected { got = Difftest.class_to_string k; first_trial }
  | Plan.Must_heal, R_mpi { fault = None; data_ok = true; healed; _ } when healed > 0 ->
      Detected { got = "healed"; first_trial = 0 }
  | Plan.Must_heal, R_mpi { fault = None; data_ok = true; _ } ->
      Missed { detail = "fault never armed: no recovery recorded" }
  | Plan.Must_heal, R_mpi { fault = None; data_ok = false; _ } ->
      Missed { detail = "data silently corrupted" }
  | Plan.Must_heal, R_mpi { fault = Some f; _ } ->
      Misclassified { expected = "healed"; got = "Mpi_fault " ^ f }
  | Plan.Must_fault, R_mpi { fault = Some f; _ } -> Detected { got = "Mpi_fault " ^ f; first_trial = 0 }
  | Plan.Must_fault, R_mpi { fault = None; data_ok; _ } ->
      Missed
        {
          detail =
            (if data_ok then "persistent fault healed silently" else "no typed fault; data corrupted");
        }
  (* chaos probes: healing means the supervised campaign absorbed a fault it
     provably saw (typed failure classes fired) and still produced instance
     lines byte-identical to the serial reference *)
  | Plan.Must_heal, R_net { identical = true; first_failure = Some cls } ->
      Detected { got = Printf.sprintf "healed (%s)" cls; first_trial = 0 }
  | Plan.Must_heal, R_net { identical = true; first_failure = None } ->
      Missed { detail = "fault never armed: no worker failure observed" }
  | Plan.Must_heal, R_net { identical = false; _ } ->
      Missed { detail = "journal instance lines diverged from the serial reference" }
  | (Plan.Must_heal | Plan.Must_fault), R_verdict _
  | (Plan.Must_semantics | Plan.Must_detect), (R_mpi _ | R_net _)
  | Plan.Must_fault, R_net _ ->
      Quarantined { detail = "probe returned a mismatched result shape" }

let localized_of = function
  | R_verdict { localized; _ } -> localized
  | R_mpi _ | R_net _ -> None

let audit_of = function
  | R_verdict { audit_flagged; _ } -> audit_flagged
  | R_mpi _ | R_net _ -> None

let dep_of = function
  | R_verdict { dep_witness = Some _; dep_confirmed; _ } ->
      Some (dep_confirmed = Some true)
  | R_verdict { dep_witness = None; _ } | R_mpi _ | R_net _ -> None

(* ---- campaign ------------------------------------------------------------ *)

let max_attempts = 3

let failure_detail = function
  | Campaign.Timed_out { deadline_s } -> Printf.sprintf "timed out after %.1fs" deadline_s
  | Campaign.Crashed { detail } -> "crashed: " ^ detail
  | Campaign.Completed -> "completed without a result"

(* Run difftest probes' instances on [j] supervised local workers, exactly
   as a campaign runs its instances; results in input order. *)
let run_instances ~j ~deadline_s ?(on_done = fun _ _ -> ()) (items : Campaign.item array) =
  (* workers resolve transformations by name. A mutant's name is its base
     transformation and kind, and every spec arms it with the same mutation
     seed (Plan.mutation_seed), so specs that share a name share the mutant *)
  let catalog =
    List.sort_uniq
      (fun (a : Transforms.Xform.t) (b : Transforms.Xform.t) ->
        compare a.Transforms.Xform.name b.Transforms.Xform.name)
      (Array.to_list (Array.map (fun (it : Campaign.item) -> it.xform) items))
  in
  let results = Array.make (Array.length items) None in
  Engine.Supervisor.run ~policy:Engine.Supervisor.default_policy
    ~on_failure:(fun _ _ -> ())
    ~tick:ignore ~workers:[] ~j ~catalog ~deadline_s
    ~telemetry:(Engine.Telemetry.create ~progress:false ~total:(Array.length items) ~j ())
    ~on_done:(fun i r ->
      results.(i) <- Some r;
      on_done i r)
    items;
  Array.map Option.get results

(* One attempt at a probe: a one-instance supervised run, or the parent's
   computation with any exception settled as [Crashed]. *)
let attempt ~deadline_s = function
  | Instance (it, derive) -> Result.map derive (run_instances ~j:1 ~deadline_s [| it |]).(0)
  | Parent f -> (
      try Ok (f ()) with e -> Error (Campaign.Crashed { detail = Printexc.to_string e }))

(* Graceful degradation: a failed probe is retried serially with its
   deadline doubled each attempt; a probe that only succeeds on a retry is
   run once more to confirm the verdict is stable. Flaky or never-finishing
   specs are quarantined — recorded, never fatal, never miscounted as
   missed. *)
let settle ~deadline_s probe first =
  match first with
  | Ok r -> (`Ready r, 1)
  | Error f0 ->
      let rec retry n deadline last =
        if n > max_attempts then (`Quarantine (failure_detail last), max_attempts)
        else
          match attempt ~deadline_s:deadline probe with
          | Error f -> retry (n + 1) (deadline *. 2.) f
          | Ok r -> (
              (* confirm the late success is stable before trusting it *)
              match attempt ~deadline_s:deadline probe with
              | Ok r' when r' = r -> (`Ready r, n)
              | Ok _ -> (`Quarantine "flaky: verdict changed across retries", n)
              | Error f -> (`Quarantine ("flaky: " ^ failure_detail f), n))
      in
      retry 2 (deadline_s *. 2.) f0

let run ?(j = 1) ?(deadline_s = 60.) ?(trials = 10) ?level ?generated ?(progress = false) ~seed
    () =
  let specs = Plan.catalog ?level ?generated ~seed () in
  let probes = List.map (probe_of ~trials ~seed) specs in
  let log id r =
    if progress then
      Printf.eprintf "[selfcheck] %s: %s\n%!" id
        (match r with Ok _ -> "done" | Error f -> failure_detail f)
  in
  (* every difftest probe on one supervised run; the MPI and net probes run
     here, in the parent, as their rows come up *)
  let items =
    Array.of_list (List.filter_map (function Instance (it, _) -> Some it | Parent _ -> None) probes)
  in
  let results =
    run_instances ~j ~deadline_s ~on_done:(fun k r -> log items.(k).Campaign.id r) items
  in
  let next = ref 0 in
  let rows =
    List.map2
      (fun (spec : Plan.spec) probe ->
        let first =
          match probe with
          | Instance (_, derive) ->
              incr next;
              Result.map derive results.(!next - 1)
          | Parent _ ->
              let r = attempt ~deadline_s probe in
              log spec.Plan.id r;
              r
        in
        match settle ~deadline_s probe first with
        | `Ready r, attempts ->
            {
              spec;
              outcome = classify spec r;
              attempts;
              localized = localized_of r;
              audit = audit_of r;
              dep = dep_of r;
            }
        | `Quarantine detail, attempts ->
            {
              spec;
              outcome = Quarantined { detail };
              attempts;
              localized = None;
              audit = None;
              dep = None;
            })
      specs probes
  in
  { seed; trials; rows }

(* ---- aggregation --------------------------------------------------------- *)

type totals = {
  specs : int;
  detected : int;
  missed : int;
  misclassified : int;
  quarantined : int;
  core_total : int;  (** interp + transform specs, quarantined excluded *)
  core_detected : int;
  semantics_total : int;
  semantics_detected : int;
  mpi_total : int;
  mpi_detected : int;
  net_total : int;  (** distributed-service chaos specs, quarantined excluded *)
  net_detected : int;
  loc_checked : int;
  loc_accurate : int;
  dep_expected : int;
      (** non-quarantined subset-shift / wrong-stride transform specs — the
          mutations the exact dependence tier must catch statically *)
  dep_witnessed : int;  (** of those, a solver witness was produced *)
  dep_confirmed : int;  (** of those, the directed replay reproduced the failure *)
  extra_attempts : int;
}

let totals (r : report) =
  let count p = List.length (List.filter p r.rows) in
  let ( &&& ) p q row = p row && q row in
  let hit row = match row.outcome with Detected _ -> true | _ -> false in
  let quarantined row = match row.outcome with Quarantined _ -> true | _ -> false in
  let at levels row = (not (quarantined row)) && List.mem row.spec.Plan.level levels in
  let core = at [ Plan.L_interp; Plan.L_transform ] and mpi = at [ Plan.L_mpi ] in
  let net = at [ Plan.L_net ] in
  let semantics row = row.spec.Plan.expect = Plan.Must_semantics in
  let dep_spec row =
    (not (quarantined row))
    &&
    match row.spec.Plan.payload with
    | Plan.Transform_fault { kind = Mutate.Subset_shift | Mutate.Wrong_stride; _ } -> true
    | _ -> false
  in
  {
    specs = List.length r.rows;
    detected = count hit;
    missed = count (fun row -> match row.outcome with Missed _ -> true | _ -> false);
    misclassified = count (fun row -> match row.outcome with Misclassified _ -> true | _ -> false);
    quarantined = count quarantined;
    core_total = count core;
    core_detected = count (core &&& hit);
    semantics_total = count semantics;
    semantics_detected = count (semantics &&& hit);
    mpi_total = count mpi;
    mpi_detected = count (mpi &&& hit);
    net_total = count net;
    net_detected = count (net &&& hit);
    loc_checked = count (fun row -> row.localized <> None);
    loc_accurate = count (fun row -> row.localized = Some true);
    dep_expected = count dep_spec;
    dep_witnessed = count (dep_spec &&& fun row -> row.dep <> None);
    dep_confirmed = count (dep_spec &&& fun row -> row.dep = Some true);
    extra_attempts = List.fold_left (fun acc row -> acc + row.attempts - 1) 0 r.rows;
  }

let detection_rate r =
  let t = totals r in
  if t.core_total = 0 then 1.0 else float_of_int t.core_detected /. float_of_int t.core_total

let misses r =
  List.filter
    (fun { outcome; _ } -> match outcome with Missed _ | Misclassified _ -> true | _ -> false)
    r.rows

(* The selfcheck gate: the core detection rate must reach [floor], and with
   [require_semantics] every Must_semantics spec must be Detected outright —
   a quarantined semantics spec fails the gate, since detection was not
   proven. *)
let passed ?(floor = 0.95) ?(require_semantics = false) ?(require_deps = false) r =
  let t = totals r in
  detection_rate r >= floor
  && ((not require_semantics) || t.semantics_detected = t.semantics_total)
  && ((not require_deps) || t.dep_confirmed = t.dep_expected)

(* ---- rendering ----------------------------------------------------------- *)

let outcome_detail = function
  | Detected { got; first_trial } ->
      if first_trial > 0 then Printf.sprintf "%s (first trial %d)" got first_trial else got
  | Missed { detail } -> detail
  | Misclassified { expected; got } -> Printf.sprintf "expected %s, got %s" expected got
  | Quarantined { detail } -> detail

let render r =
  let b = Buffer.create 4096 in
  let t = totals r in
  Buffer.add_string b
    (Printf.sprintf "faultlab selfcheck · seed %d · %d trials/spec · %d specs\n" r.seed r.trials
       t.specs);
  List.iter
    (fun ({ spec; outcome; attempts; localized; audit; dep } : row) ->
      Buffer.add_string b
        (Printf.sprintf "  %-13s %-45s %s%s%s%s%s\n"
           (String.uppercase_ascii (outcome_name outcome))
           spec.Plan.id (outcome_detail outcome)
           (match localized with
           | Some true -> " · localized"
           | Some false -> " · mislocalized"
           | None -> "")
           (match audit with
           | Some true -> " · audit"
           | Some false | None -> "")
           (match dep with
           | Some true -> " · dep-witness"
           | Some false -> " · dep-witness (not reproduced)"
           | None -> "")
           (if attempts > 1 then Printf.sprintf " · %d attempts" attempts else "")))
    r.rows;
  Buffer.add_string b
    (Printf.sprintf
       "detection: %d/%d core (%.1f%%) · %d/%d mpi · %d/%d net · semantics gate %d/%d\n"
       t.core_detected t.core_total
       (100. *. detection_rate r)
       t.mpi_detected t.mpi_total t.net_detected t.net_total t.semantics_detected
       t.semantics_total);
  Buffer.add_string b
    (Printf.sprintf
       "misclassified: %d · quarantined: %d · localization: %d/%d accurate · extra attempts: %d\n"
       t.misclassified t.quarantined t.loc_accurate t.loc_checked t.extra_attempts);
  if t.dep_expected > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "dependence witnesses: %d/%d specs witnessed, %d reproduced as directed seeds\n"
         t.dep_witnessed t.dep_expected t.dep_confirmed);
  let ms = misses r in
  if ms <> [] then begin
    Buffer.add_string b "misses:\n";
    List.iter
      (fun ({ spec; outcome; _ } : row) ->
        Buffer.add_string b (Printf.sprintf "  %s: %s\n" spec.Plan.id (outcome_detail outcome)))
      ms
  end;
  Buffer.contents b

(* ---- deterministic JSONL report ------------------------------------------ *)

module Json = Engine.Journal.Json

let row_json ({ spec; outcome; attempts; localized; audit; dep } : row) =
  Json.Obj
    ([
       ("kind", Json.Str "spec");
       ("id", Json.Str spec.Plan.id);
       ("level", Json.Str (Plan.level_to_string spec.Plan.level));
       ("expect", Json.Str (Plan.expect_to_string spec.Plan.expect));
       ("descr", Json.Str spec.Plan.descr);
       ("outcome", Json.Str (outcome_name outcome));
       ("detail", Json.Str (outcome_detail outcome));
       ("attempts", Json.Num (float_of_int attempts));
     ]
    @ (match outcome with
      | Detected { first_trial; _ } when first_trial > 0 ->
          [ ("first_trial", Json.Num (float_of_int first_trial)) ]
      | _ -> [])
    @ (match localized with
      | None -> [ ("localized", Json.Null) ]
      | Some v -> [ ("localized", Json.Bool v) ])
    @ (match audit with
      | None -> [ ("audit_flagged", Json.Null) ]
      | Some v -> [ ("audit_flagged", Json.Bool v) ])
    @
    match dep with
    | None -> [ ("dep_witness", Json.Null) ]
    | Some v -> [ ("dep_witness", Json.Bool v) ])

let to_jsonl r =
  let t = totals r in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Json.to_string
       (Json.Obj
          [
            ("kind", Json.Str "selfcheck");
            ("seed", Json.Num (float_of_int r.seed));
            ("trials", Json.Num (float_of_int r.trials));
            ("specs", Json.Num (float_of_int t.specs));
          ]));
  Buffer.add_char b '\n';
  List.iter
    (fun row ->
      Buffer.add_string b (Json.to_string (row_json row));
      Buffer.add_char b '\n')
    r.rows;
  Buffer.add_string b
    (Json.to_string
       (Json.Obj
          [
            ("kind", Json.Str "totals");
            ("detected", Json.Num (float_of_int t.detected));
            ("missed", Json.Num (float_of_int t.missed));
            ("misclassified", Json.Num (float_of_int t.misclassified));
            ("quarantined", Json.Num (float_of_int t.quarantined));
            ("core_detected", Json.Num (float_of_int t.core_detected));
            ("core_total", Json.Num (float_of_int t.core_total));
            ("detection_rate", Json.Num (detection_rate r));
            ("semantics_detected", Json.Num (float_of_int t.semantics_detected));
            ("semantics_total", Json.Num (float_of_int t.semantics_total));
            ("mpi_detected", Json.Num (float_of_int t.mpi_detected));
            ("mpi_total", Json.Num (float_of_int t.mpi_total));
            ("net_detected", Json.Num (float_of_int t.net_detected));
            ("net_total", Json.Num (float_of_int t.net_total));
            ("localization_checked", Json.Num (float_of_int t.loc_checked));
            ("localization_accurate", Json.Num (float_of_int t.loc_accurate));
            ("dep_expected", Json.Num (float_of_int t.dep_expected));
            ("dep_witnessed", Json.Num (float_of_int t.dep_witnessed));
            ("dep_confirmed", Json.Num (float_of_int t.dep_confirmed));
            ("extra_attempts", Json.Num (float_of_int t.extra_attempts));
          ]));
  Buffer.add_char b '\n';
  Buffer.contents b
