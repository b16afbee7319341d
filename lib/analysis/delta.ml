(* carried dependences count here: both sides see them, so pre-existing ones
   cancel out and only transformation-introduced ones survive the delta *)
let oracle ~symbols g =
  match Oracle.analyze_stats ~carried:true ~symbols g with
  | r -> r
  | exception _ -> ([], Races.stats_zero)

let coverage ~symbols g = match Defuse.check_coverage ~symbols g with fs -> fs | exception _ -> []

(* the unchanged program's half of a delta: its oracle findings and
   counters, and the containers its coverage check flags *)
type baseline = {
  findings : Report.finding list;
  stats : Races.stats;
  flagged : string list;
}

type memo = baseline Sdfg.Memo.t

let compute ~symbols g =
  let findings, stats = oracle ~symbols g in
  {
    findings;
    stats;
    flagged = List.map (fun (f : Report.finding) -> f.container) (coverage ~symbols g);
  }

let baseline ?memo ~symbols g =
  match memo with
  | None -> compute ~symbols g
  | Some m -> Sdfg.Memo.find_or_add m g ~symbols (fun () -> compute ~symbols g)

(* Read-coverage of transients is a delta-only signal (see Defuse.check_coverage):
   shipped stencils legitimately read zero-initialized halo cells, so only a
   container that the transformation *newly* flags counts. Diffing by container
   name (not finding text) keeps a pre-existing gap whose witness merely moved
   from polluting the delta. *)
let against ~symbols b g' =
  let after, sa = oracle ~symbols g' in
  let uncovered =
    List.filter
      (fun (f : Report.finding) -> not (List.mem f.container b.flagged))
      (coverage ~symbols g')
  in
  ( Report.sort (Report.new_findings ~before:b.findings ~after @ uncovered),
    Races.stats_add b.stats sa )

let apply ?memo ?(symbols = []) g (x : Transforms.Xform.t) site =
  let g' = Sdfg.Graph.copy g in
  match x.apply g' site with
  | exception Transforms.Xform.Cannot_apply _ -> None
  | declared -> Some (g', declared, against ~symbols (baseline ?memo ~symbols g) g')

let verify_stats ?symbols g x site = Option.map (fun (_, _, d) -> d) (apply ?symbols g x site)
let verify ?symbols g x site = Option.map fst (verify_stats ?symbols g x site)
