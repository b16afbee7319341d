type decision =
  | Applied
  | Proved_equivalent of Analysis.Certificate.t
  | Rejected of Difftest.failing
  | Rejected_static of Analysis.Report.finding list
  | Stale of string
  | Crashed of string

type step = {
  xform_name : string;
  site : Transforms.Xform.site;
  decision : decision;
}

type log = {
  steps : step list;
  applied : int;
  proved : int;
  rejected : int;
  stale : int;
  crashed : int;
  witness_probes : int;
  witness_confirmed : int;
}

let pp_log fmt log =
  Format.fprintf fmt "%d applied (%d proved equivalent), %d rejected, %d stale, %d crashed@."
    (log.applied + log.proved) log.proved log.rejected log.stale log.crashed;
  if log.witness_probes > 0 then
    Format.fprintf fmt "%d dependence witnesses probed, %d reproduced dynamically@."
      log.witness_probes log.witness_confirmed;
  List.iter
    (fun s ->
      let d =
        match s.decision with
        | Applied -> "applied"
        | Proved_equivalent _ -> "applied (proved equivalent, no trials)"
        | Rejected f -> "REJECTED: " ^ Difftest.class_to_string f.Difftest.klass
        | Rejected_static fs ->
            "REJECTED (static): "
            ^ String.concat "; " (List.map Analysis.Report.to_string fs)
        | Stale msg -> "stale: " ^ msg
        | Crashed detail -> "CRASHED: " ^ detail
      in
      Format.fprintf fmt "  %s @@ %a: %s@." s.xform_name Transforms.Xform.pp_site s.site d)
    log.steps

let optimize ?(config = Difftest.default_config) ?(static_gate = false) g xforms =
  let current = ref (Sdfg.Graph.copy g) in
  let steps = ref [] in
  let witness_probes = ref 0 and witness_confirmed = ref 0 in
  (* the current program only changes when an instance is applied, so the
     sites tried in between share its half of the static delta; the next
     version shares every state the applied step left unchanged *)
  let memo = Analysis.Delta.create_memo () in
  let symbols = config.Difftest.concretization in
  List.iter
    (fun (x : Transforms.Xform.t) ->
      (* sites are discovered on the current program; once an instance is
         applied, a later site is only tested if the rewritten program still
         has it *)
      let sites = x.find !current in
      let live = ref (lazy sites) in
      let decide site =
        if not (List.mem site (Lazy.force !live)) then
          Stale "site gone after an earlier rewrite"
        else
          (* one application on a copy of the current program serves the
             audit, the delta, certification, the probes and the fuzz path;
             a passing instance adopts that copy as the next version. The
             program is replaced, never mutated, so an instance that fails
             or raises leaves it as it was. Only an application that gave a
             copy can pass. *)
          let applied = Transforms.Xform.apply_copy x !current site in
          let commit decision =
            Result.iter
              (fun (g', _) ->
                current := g';
                live := lazy (x.find g'))
              applied;
            decision
          in
          let probe valuation = Difftest.probe ~config ~valuation !current x site applied in
          let fuzz () =
            match Difftest.test_applied ~config !current x site applied with
            | { verdict = Difftest.Pass; _ } -> commit Applied
            | { verdict = Difftest.Fail f; _ } -> Rejected f
          in
          match applied with
          | Ok (g', declared) when static_gate -> (
              (* static pre-gate: veto with evidence before spending any
                 trials. The change-set audit takes precedence — a declared
                 change set that under-approximates the true diff would make
                 the cutout (and so every trial) test the wrong subprogram. *)
              let copy = Sdfg.Validate.admit g' in
              let delta, _ = Analysis.Delta.between ~memo ~symbols !current copy in
              let findings =
                match Analysis.Audit.check ~original:!current ~transformed:g' ~declared with
                | [] -> delta
                | audit_findings -> audit_findings
              in
              match findings with
              | _ :: _ ->
                  (* a race finding decided by the exact dependence tier
                     carries a solver witness; feed it to the fuzzer as a
                     directed seed — one pinned trial corroborating the
                     static veto dynamically (pinned names the cutout does
                     not sample are simply ignored) *)
                  (match List.find_map Analysis.Races.witness_of_finding findings with
                  | Some valuation -> (
                      incr witness_probes;
                      match probe valuation with
                      | { verdict = Difftest.Fail _; _ } -> incr witness_confirmed
                      | { verdict = Difftest.Pass; _ } -> ())
                  | None -> ());
                  Rejected_static findings
              | [] -> (
                  (* translation validation: a proved-equivalent instance
                     whose copy validates is applied without spending a
                     single trial; a refutation witness seeds one cheap probe
                     trial pinned to the witness valuation before the
                     full-budget run *)
                  match Analysis.Equiv.decide ~memo ~symbols ~delta !current copy x site with
                  | Analysis.Equiv.Equivalent cert -> commit (Proved_equivalent cert)
                  | Analysis.Equiv.Refuted w -> (
                      match probe w.valuation with
                      | { verdict = Difftest.Fail f; _ } -> Rejected f
                      | { verdict = Difftest.Pass; _ } -> fuzz ())
                  | Analysis.Equiv.Unknown _ -> fuzz ()))
          | Ok _ | Error _ -> fuzz ()
      in
      List.iter
        (fun site ->
          (* an exception that escapes one instance settles it, unapplied, as
             [Campaign.run] settles a crashed instance *)
          let decision = try decide site with e -> Crashed (Printexc.to_string e) in
          steps := { xform_name = x.name; site; decision } :: !steps)
        sites)
    xforms;
  let steps = List.rev !steps in
  let count p = List.length (List.filter (fun s -> p s.decision) steps) in
  ( !current,
    {
      steps;
      applied = count (function Applied -> true | _ -> false);
      proved = count (function Proved_equivalent _ -> true | _ -> false);
      rejected = count (function Rejected _ | Rejected_static _ -> true | _ -> false);
      stale = count (function Stale _ -> true | _ -> false);
      crashed = count (function Crashed _ -> true | _ -> false);
      witness_probes = !witness_probes;
      witness_confirmed = !witness_confirmed;
    } )
