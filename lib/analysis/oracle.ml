let analyze_stats ?memo ?(carried = false) ?symbols g =
  (* interval facts sharpen the sampling context: a symbol the fixpoint
     bounds to a concrete range contributes its endpoints as candidate
     values for the per-state checks — and its interval enters the exact
     dependence tier as constraints *)
  let facts = Intervals.facts ?symbols g in
  let ctx = Context.make ?symbols ~facts:(Intervals.concrete_bounds ?symbols g facts) g in
  let check =
    Reuse.checks memo ~carried ctx g (fun sid st ->
        let rfs, s = Races.check_state_stats ~carried ?memo:(Reuse.deps memo) ctx g sid st in
        (rfs @ Bounds.check_state ctx g sid st, s))
  in
  let per_state, stats =
    List.fold_left
      (fun (fs, acc) (sid, st) ->
        let fs', s = check sid st in
        (fs @ fs', Races.stats_add acc s))
      ([], Races.stats_zero) (Sdfg.Graph.states g)
  in
  ( Report.sort
      (per_state @ Defuse.check g @ Liveness.check g @ Reachdef.check g
     @ Footprint.check ?memo ?symbols g),
    stats )

let analyze ?carried ?symbols g = fst (analyze_stats ?carried ?symbols g)
