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
  batch : int;
}

let default_config =
  {
    max_trials = 200;
    seed = 7;
    threshold = 1e-5;
    step_limit = 5_000_000;
    corpus_init = 4;
    batch = 1;
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
  let sweep =
    Difftest.sweep ~original:cutout.program ~transformed ~config:(icfg (mode = Coverage))
      ~config_x:(icfg false)
  in
  let rng = Sampler.create config.seed in
  let coverage = ref ISet.empty in
  let trials = ref 0 in
  let crashes = ref 0 in
  let outcome = ref None in
  (* examine one trial's outcome pair; true when it reached new coverage *)
  let examine (symbols, _) (o1, o2) =
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
      (* windows of presampled trials, examined in order up to the first
         failure; draws past it are discarded, as a one-by-one loop never
         makes them *)
      let width = max 1 config.batch in
      while searching () do
        let entries =
          Array.init (min width (config.max_trials - !trials)) (fun _ ->
              Sampler.trial rng constraints cutout)
        in
        let outs = sweep ~width entries in
        Array.iteri (fun i entry -> if !outcome = None then ignore (examine entry outs.(i))) entries
      done
  | Coverage ->
      (* the corpus evolves trial by trial, so each trial is its own sweep *)
      let one entry = examine entry (sweep ~width:1 [| entry |]).(0) in
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
