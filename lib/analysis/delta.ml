(* carried dependences count here: both sides see them, so pre-existing ones
   cancel out and only transformation-introduced ones survive the delta *)
let oracle ~memo ~symbols g =
  match Oracle.analyze_stats ~memo ~carried:true ~symbols g with
  | r -> r
  | exception _ -> ([], Races.stats_zero)

let coverage ~memo ~symbols g =
  match Defuse.check_coverage ~memo ~symbols g with fs -> fs | exception _ -> []

(* the unchanged program's half of a delta: its oracle findings and
   counters, and the containers its coverage check flags *)
type baseline = {
  findings : Report.finding list;
  stats : Races.stats;
  flagged : string list;
}

type memo = baseline Reuse.t

let create_memo () = Reuse.create ()
let memo_stats = Reuse.stats

let compute ~memo ~symbols g =
  let findings, stats = oracle ~memo ~symbols g in
  {
    findings;
    stats;
    flagged = List.map (fun (f : Report.finding) -> f.container) (coverage ~memo ~symbols g);
  }

(* Read-coverage of transients is a delta-only signal (see Defuse.check_coverage):
   shipped stencils legitimately read zero-initialized halo cells, so only a
   container that the transformation *newly* flags counts. Diffing by container
   name (not finding text) keeps a pre-existing gap whose witness merely moved
   from polluting the delta. *)
let between ~memo ~symbols g g' =
  let b = Reuse.baseline memo ~symbols g (fun () -> compute ~memo ~symbols g) in
  let after, sa = oracle ~memo ~symbols g' in
  let uncovered =
    List.filter
      (fun (f : Report.finding) -> not (List.mem f.container b.flagged))
      (coverage ~memo ~symbols g')
  in
  ( Report.sort (Report.new_findings ~before:b.findings ~after @ uncovered),
    Races.stats_add b.stats sa )

(* a memo for the call still lets the transformed copy reuse the unchanged
   program's per-state results *)
let verify_stats ?(symbols = []) g x site =
  match Transforms.Xform.apply_copy x g site with
  | Ok (g', _) -> Some (between ~memo:(create_memo ()) ~symbols g g')
  | Error _ -> None

let verify ?symbols g x site = Option.map fst (verify_stats ?symbols g x site)
