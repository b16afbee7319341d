type mode = Uniform | Graybox | Coverage

let mode_to_string = function
  | Uniform -> "uniform"
  | Graybox -> "gray-box"
  | Coverage -> "coverage-guided"

type config = {
  max_trials : int;
  seed : int;
  threshold : float;
  step_limit : int;
  corpus_init : int;
}

let default_config =
  {
    max_trials = 200;
    seed = 7;
    threshold = 1e-5;
    step_limit = 5_000_000;
    corpus_init = 4;
  }

type result = {
  trials_to_failure : int option;
  trials_run : int;
  distinct_coverage : int;
  uninteresting_crashes : int;
  failure : Difftest.failure_kind option;
  failing_symbols : (string * int) list;
}

module ISet = Set.Make (Int)

let run ?(config = default_config) mode ~original ~(cutout : Cutout.t) ~transformed =
  let constraints =
    match mode with
    | Uniform -> Constraints.uniform cutout
    | Graybox | Coverage -> Constraints.derive ~original cutout
  in
  let icfg collect =
    {
      Interp.Exec.default_config with
      step_limit = config.step_limit;
      collect_coverage = collect;
    }
  in
  (* coverage is collected on the original side, and only when it steers *)
  let original_v = Sdfg.Validate.check_exn cutout.program in
  let transformed_v = Sdfg.Validate.check_exn transformed in
  let sweep =
    Difftest.sweep ~original:original_v ~transformed:transformed_v
      ~config:(icfg (mode = Coverage)) ~config_x:(icfg false)
  in
  let rng = Sampler.create config.seed in
  let coverage = ref ISet.empty in
  let trials = ref 0 in
  let crashes = ref 0 in
  let outcome = ref None in
  (* run and examine one trial; true when it reached new coverage *)
  let one ((symbols, _) as entry) =
    let o1, o2 = sweep entry in
    incr trials;
    let grew =
      match o1 with
      | Ok o ->
          let pts = ISet.of_list o.Interp.Exec.coverage in
          let grew = not (ISet.subset pts !coverage) in
          coverage := ISet.union pts !coverage;
          grew
      | Error _ -> false
    in
    (match (o1, o2) with
    | Error _, Error _ -> incr crashes (* both failed: uninteresting *)
    | _ -> ());
    (match
       Difftest.compare_outcomes ~threshold:config.threshold ~system_state:cutout.system_state o1
         o2
     with
    | Some kind -> outcome := Some (!trials, kind, symbols)
    | None -> ());
    grew
  in
  let searching () = !outcome = None && !trials < config.max_trials in
  (match mode with
  | Uniform | Graybox ->
      while searching () do
        ignore (one (Sampler.trial rng constraints cutout))
      done
  | Coverage ->
      (* the corpus evolves trial by trial *)
      let corpus = ref [] in
      let i = ref 0 in
      while searching () && !i < config.corpus_init do
        incr i;
        let entry = Sampler.trial rng constraints cutout in
        ignore (one entry);
        corpus := entry :: !corpus
      done;
      while searching () do
        let n = List.length !corpus in
        let pick = List.nth !corpus (Sampler.int_in rng 0 (n - 1)) in
        let entry = Sampler.mutate rng constraints cutout pick in
        if one entry then corpus := entry :: !corpus
      done);
  {
    trials_to_failure = Option.map (fun (t, _, _) -> t) !outcome;
    trials_run = !trials;
    distinct_coverage = ISet.cardinal !coverage;
    uninteresting_crashes = !crashes;
    failure = Option.map (fun (_, kind, _) -> kind) !outcome;
    failing_symbols = (match !outcome with Some (_, _, symbols) -> symbols | None -> []);
  }
