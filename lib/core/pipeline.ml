type decision =
  | Applied
  | Proved_equivalent of Analysis.Certificate.t
  | Rejected of Difftest.failing
  | Rejected_static of Analysis.Report.finding list
  | Stale of string

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
  witness_probes : int;
  witness_confirmed : int;
}

let pp_log fmt log =
  Format.fprintf fmt "%d applied (%d proved equivalent), %d rejected, %d stale@."
    (log.applied + log.proved) log.proved log.rejected log.stale;
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
      in
      Format.fprintf fmt "  %s @@ %a: %s@." s.xform_name Transforms.Xform.pp_site s.site d)
    log.steps

let optimize ?(config = Difftest.default_config) ?(static_gate = false) g xforms =
  let current = Sdfg.Graph.copy g in
  let steps = ref [] in
  let applied = ref 0 and proved = ref 0 and rejected = ref 0 and stale = ref 0 in
  let witness_probes = ref 0 and witness_confirmed = ref 0 in
  (* the current program only changes when an instance is applied, so the
     sites tried in between share its half of the static delta *)
  let memo = Sdfg.Memo.create () in
  let symbols = config.Difftest.concretization in
  List.iter
    (fun (x : Transforms.Xform.t) ->
      (* discover on the current program; apply passing instances one by one *)
      List.iter
        (fun site ->
          let record decision = steps := { xform_name = x.name; site; decision } :: !steps in
          (* static pre-gate: veto with evidence before spending any trials.
             The change-set audit takes precedence — a declared change set
             that under-approximates the true diff would make the cutout (and
             so every trial) test the wrong subprogram. One application on a
             copy serves the audit, the delta and certification; the
             transformed copy and its delta ride along for the latter. *)
          let static_verdict =
            if static_gate then
              match Analysis.Delta.apply ~memo ~symbols current x site with
              | None -> None
              | Some (g', declared, (delta, _)) ->
                  let findings =
                    match Analysis.Audit.check ~original:current ~transformed:g' ~declared with
                    | [] -> delta
                    | audit_findings -> audit_findings
                  in
                  Some (findings, Some (g', delta))
            else Some ([], None)
          in
          match static_verdict with
          | None ->
              incr stale;
              record (Stale "static gate: site no longer matches")
          | Some ((_ :: _ as findings), _) ->
              incr rejected;
              (* a race finding decided by the exact dependence tier carries a
                 solver witness; feed it to the fuzzer as a directed seed — one
                 pinned trial corroborating the static veto dynamically (pinned
                 names the cutout does not sample are simply ignored) *)
              (match List.find_map Analysis.Races.witness_of_finding findings with
              | Some valuation -> (
                  incr witness_probes;
                  let probe =
                    {
                      config with
                      Difftest.trials = 1;
                      custom_constraints =
                        List.map (fun (s, v) -> (s, (v, v))) valuation
                        @ config.Difftest.custom_constraints;
                    }
                  in
                  match Difftest.test_instance ~config:probe current x site with
                  | { verdict = Difftest.Fail _; _ } -> incr witness_confirmed
                  | { verdict = Difftest.Pass; _ } | (exception _) -> ())
              | None -> ());
              record (Rejected_static findings)
          | Some ([], transformed) -> (
              let fuzz ~config () =
                match Difftest.test_instance ~config current x site with
                | { verdict = Difftest.Pass; _ } -> (
                    match x.apply current site with
                    | _ ->
                        incr applied;
                        record Applied
                    | exception Transforms.Xform.Cannot_apply msg ->
                        incr stale;
                        record (Stale msg))
                | { verdict = Difftest.Fail f; _ } ->
                    incr rejected;
                    record (Rejected f)
                | exception Transforms.Xform.Cannot_apply msg ->
                    incr stale;
                    record (Stale msg)
              in
              (* translation validation: a proved-equivalent instance is
                 applied without spending a single trial; a refutation
                 witness seeds one cheap probe trial pinned to the witness
                 valuation before the full-budget run *)
              let verdict =
                Option.map
                  (fun (g', delta) -> Analysis.Equiv.decide ~symbols ~delta current g' x site)
                  transformed
              in
              match verdict with
              | Some (Analysis.Equiv.Equivalent cert) -> (
                  match x.apply current site with
                  | _ ->
                      incr proved;
                      record (Proved_equivalent cert)
                  | exception Transforms.Xform.Cannot_apply msg ->
                      incr stale;
                      record (Stale msg))
              | Some (Analysis.Equiv.Refuted w) -> (
                  let probe =
                    {
                      config with
                      Difftest.trials = 1;
                      custom_constraints =
                        List.map (fun (s, v) -> (s, (v, v))) w.valuation
                        @ config.Difftest.custom_constraints;
                    }
                  in
                  match Difftest.test_instance ~config:probe current x site with
                  | { verdict = Difftest.Fail f; _ } ->
                      incr rejected;
                      record (Rejected f)
                  | { verdict = Difftest.Pass; _ } -> fuzz ~config ()
                  | exception Transforms.Xform.Cannot_apply msg ->
                      incr stale;
                      record (Stale msg))
              | Some (Analysis.Equiv.Unknown _) | None -> fuzz ~config ()))
        (x.find current))
    xforms;
  ( current,
    {
      steps = List.rev !steps;
      applied = !applied;
      proved = !proved;
      rejected = !rejected;
      stale = !stale;
      witness_probes = !witness_probes;
      witness_confirmed = !witness_confirmed;
    } )
