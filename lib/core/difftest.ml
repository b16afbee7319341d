open Sdfg

type failure_kind =
  | Numerical of { container : string; flat_index : int; original : float; transformed : float }
  | Fault_divergence of {
      original : Interp.Exec.fault option;
      transformed : Interp.Exec.fault option;
    }
  | Invalid_transformed of string

let pp_fault_opt fmt = function
  | None -> Format.pp_print_string fmt "ok"
  | Some f -> Interp.Exec.pp_fault fmt f

let pp_failure fmt = function
  | Numerical { container; flat_index; original; transformed } ->
      Format.fprintf fmt "system state differs in %s[%d]: %.17g vs %.17g" container flat_index
        original transformed
  | Fault_divergence { original; transformed } ->
      Format.fprintf fmt "fault divergence: original %a, transformed %a" pp_fault_opt original
        pp_fault_opt transformed
  | Invalid_transformed msg -> Format.fprintf fmt "transformation invalid on cutout: %s" msg

type failure_class = Semantics | Input_dependent | Invalid_code

let class_to_string = function
  | Semantics -> "semantic change"
  | Input_dependent -> "input dependent"
  | Invalid_code -> "invalid code"

type failing = {
  klass : failure_class;
  first_trial : int;
  failing_trials : int;
  kind : failure_kind;
  symbols : (string * int) list;
}

type verdict = Pass | Fail of failing

type config = {
  trials : int;
  seed : int;
  threshold : float;
  max_size : int;
  step_limit : int;
  use_min_cut : bool;
  black_box : bool;
  shrink : bool;
  concretization : (string * int) list;
  custom_constraints : (string * (int * int)) list;
  inject_transformed : Interp.Exec.injection option;
  batch : int;
}

let default_config =
  {
    trials = 20;
    seed = 42;
    threshold = 1e-5;
    max_size = 16;
    step_limit = 400_000;
    use_min_cut = true;
    black_box = false;
    shrink = false;
    concretization = [];
    custom_constraints = [];
    inject_transformed = None;
    batch = 1;
  }

type report = {
  xform_name : string;
  site : Transforms.Xform.site;
  verdict : verdict;
  cutout : Cutout.t;
  min_cut_stats : Min_cut.stats option;
  shrink_stats : Cutout.shrink_stats option;
  trials_run : int;
  elapsed_s : float;
}

let pp_report fmt r =
  let v =
    match r.verdict with
    | Pass -> "PASS"
    | Fail f ->
        Format.asprintf "FAIL (%s, first trial %d, %d/%d failing): %a"
          (class_to_string f.klass) f.first_trial f.failing_trials r.trials_run pp_failure f.kind
  in
  Format.fprintf fmt "%s @@ %a: %s" r.xform_name Transforms.Xform.pp_site r.site v

type run = (Interp.Exec.outcome, Interp.Exec.fault) result

(* The relative-tolerance clause must be guarded to finite values: with an
   infinity on either side, |a - b| and threshold * max(|a|,|b|) are both
   +inf and the comparison degenerates to inf <= inf — silently accepting
   inf against any finite value. Found by the faultlab selfcheck's Set_inf
   injection. *)
let values_match ~threshold a b =
  (Float.is_nan a && Float.is_nan b)
  || a = b
  || Float.is_finite a && Float.is_finite b && threshold > 0.
     && Float.abs (a -. b) <= threshold *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let same_fault_class (a : Interp.Exec.fault) (b : Interp.Exec.fault) =
  match (a, b) with
  | Interp.Exec.Out_of_bounds _, Interp.Exec.Out_of_bounds _
  | Interp.Exec.Hang _, Interp.Exec.Hang _
  | Interp.Exec.Invalid_graph _, Interp.Exec.Invalid_graph _
  | Interp.Exec.Runtime_error _, Interp.Exec.Runtime_error _ ->
      true
  | _ -> false

let compare_outcomes ~threshold ~system_state orig xformed =
  match (orig, xformed) with
  | Error f1, Error f2 ->
      (* both crash in the same way: an uninteresting crash (Sec. 5.1) *)
      if same_fault_class f1 f2 then None
      else Some (Fault_divergence { original = Some f1; transformed = Some f2 })
  | Error f1, Ok _ -> Some (Fault_divergence { original = Some f1; transformed = None })
  | Ok _, Error f2 -> Some (Fault_divergence { original = None; transformed = Some f2 })
  | Ok o1, Ok o2 ->
      List.find_map
        (fun container ->
          match
            (Interp.Value.buffer_opt o1.Interp.Exec.memory container,
             Interp.Value.buffer_opt o2.Interp.Exec.memory container)
          with
          | Some b1, Some b2 ->
              if Array.length b1.data <> Array.length b2.data then
                Some
                  (Numerical
                     { container; flat_index = -1; original = 0.; transformed = 0. })
              else
                let n = Array.length b1.data in
                let rec scan i =
                  if i >= n then None
                  else if values_match ~threshold b1.data.(i) b2.data.(i) then scan (i + 1)
                  else
                    Some
                      (Numerical
                         {
                           container;
                           flat_index = i;
                           original = b1.data.(i);
                           transformed = b2.data.(i);
                         })
                in
                scan 0
          | _ ->
              Some
                (Fault_divergence
                   {
                     original = None;
                     transformed = Some (Interp.Exec.Invalid_graph (container ^ " missing"));
                   }))
        system_state

(* Partial application lowers nothing yet: each side applies
   [Interp.Plan.compile] at its first trial, and every trial binds its own
   valuation to that one lowering, for as long as the instance's trial loop
   keeps the sweep. Injection, coverage collection and step limits are
   execution-time configuration, so differently configured runs share one
   lowering. Each trial runs the original program, then the transformed
   one. *)
let sweep ~original ~transformed ~config ~config_x =
  let plan_o = lazy (Interp.Plan.compile original)
  and plan_x = lazy (Interp.Plan.compile transformed) in
  fun (symbols, inputs) ->
    let run ~config plan =
      match (Lazy.force plan) ~symbols with
      | Error f -> Error f
      | Ok p -> Interp.Plan.execute ~config p ~inputs
    in
    let o = run ~config plan_o in
    (o, run ~config:config_x plan_x)

(* The trial loop shared by cutout-level and whole-program testing: each
   trial is drawn in RNG order, swept, compared, and folded into the failure
   count and the first failing trial. *)
let run_trials ~config ~constraints ~(cut : Cutout.t) ~original_prog ~transformed_prog =
  let icfg =
    { Interp.Exec.default_config with step_limit = config.step_limit; collect_coverage = false }
  in
  (* faultlab: injected faults perturb only the transformed run, so any
     detection is attributable to the seeded fault *)
  let sweep =
    sweep ~original:original_prog ~transformed:transformed_prog ~config:icfg
      ~config_x:{ icfg with Interp.Exec.inject = config.inject_transformed }
  in
  let rng = Sampler.create config.seed in
  let failures = ref 0 in
  let first = ref None in
  for trial = 1 to config.trials do
    let ((symbols, _) as entry) = Sampler.trial rng constraints cut in
    let o1, o2 = sweep entry in
    match compare_outcomes ~threshold:config.threshold ~system_state:cut.system_state o1 o2 with
    | None -> ()
    | Some kind ->
        incr failures;
        if !first = None then first := Some (trial, kind, symbols)
  done;
  match !first with
  | None -> Pass
  | Some (first_trial, kind, symbols) ->
      let klass = if !failures = config.trials then Semantics else Input_dependent in
      Fail { klass; first_trial; failing_trials = !failures; kind; symbols }

(* The copy to run: the application's own error, or the first structural
   problem of a copy that applied, gives invalid code before any trial. *)
let valid_copy = function
  | Error msg -> Error msg
  | Ok (g', _) -> (
      match Validate.check g' with
      | [] -> Ok g'
      | e :: _ -> Error (Format.asprintf "%a" Validate.pp_error e))

let invalid_failing msg =
  let kind = Invalid_transformed msg in
  { klass = Invalid_code; first_trial = 0; failing_trials = 0; kind; symbols = [] }

let invalid_report ~xform_name ~site ~cut ~elapsed msg =
  {
    xform_name;
    site;
    verdict = Fail (invalid_failing msg);
    cutout = cut;
    min_cut_stats = None;
    shrink_stats = None;
    trials_run = 0;
    elapsed_s = elapsed;
  }

let test_applied ?(config = default_config) g (x : Transforms.Xform.t) site applied =
  let t0 = Unix.gettimeofday () in
  (* 1. change isolation: the white-box change set of the caller's
     application of T to a copy *)
  match applied with
  | Error msg ->
      let dummy =
        {
          Cutout.program = Graph.create "empty";
          kind = Cutout.Dataflow { state = -1; nodes = [] };
          input_config = [];
          system_state = [];
          free_symbols = [];
        }
      in
      invalid_report ~xform_name:x.name ~site ~cut:dummy ~elapsed:(Unix.gettimeofday () -. t0) msg
  | Ok (transformed_whole, reported_cs) -> (
      (* 2. cutout extraction; optionally recover the change set black-box *)
      let cs =
        if config.black_box then Diff.compute ~original:g ~transformed:transformed_whole
        else reported_cs
      in
      let options = { Cutout.symbols = config.concretization } in
      let cut = Cutout.extract ~options g cs in
      (* 3. input minimization *)
      let cut, min_cut_stats =
        if config.use_min_cut then
          let c', stats = Min_cut.minimize g cut ~symbols:config.concretization in
          (c', Some stats)
        else (cut, None)
      in
      (* 3b. sub-region container minimization *)
      let cut, shrink_stats =
        if config.shrink then
          let c', stats = Cutout.shrink_containers cut ~symbols:config.concretization in
          (c', Some stats)
        else (cut, None)
      in
      (* 4. apply T to the cutout *)
      match valid_copy (Transforms.Xform.apply_copy x cut.program site) with
      | Error msg ->
          invalid_report ~xform_name:x.name ~site ~cut ~elapsed:(Unix.gettimeofday () -. t0) msg
      | Ok transformed ->
          (* 5. the transformation may introduce reads of prior contents
             (e.g. an overwrite turned into an accumulation); extend the
             input configuration with T(c)'s externally visible reads *)
          let original_reads = Propagate.program_reads cut.program in
          let extra_inputs =
            List.filter
              (fun c ->
                (not (List.mem c cut.input_config))
                && (not (List.mem c original_reads))
                &&
                match Graph.container_opt transformed c with
                | Some d -> not d.transient
                | None -> false)
              (Propagate.program_reads transformed)
          in
          let cut =
            { cut with Cutout.input_config = List.sort compare (cut.input_config @ extra_inputs) }
          in
          (* 6. constraints + differential fuzzing *)
          let constraints =
            Constraints.derive ~max_size:config.max_size ~custom:config.custom_constraints
              ~original:g cut
          in
          let verdict =
            run_trials ~config ~constraints ~cut ~original_prog:cut.program
              ~transformed_prog:transformed
          in
          {
            xform_name = x.name;
            site;
            verdict;
            cutout = cut;
            min_cut_stats;
            shrink_stats;
            trials_run = config.trials;
            elapsed_s = Unix.gettimeofday () -. t0;
          })

let test_instance ?config g x site =
  test_applied ?config g x site (Transforms.Xform.apply_copy x g site)

let probe ~config ~valuation g x site applied =
  let pinned = List.map (fun (s, v) -> (s, (v, v))) valuation in
  test_applied
    ~config:{ config with trials = 1; custom_constraints = pinned @ config.custom_constraints }
    g x site applied

let test_whole_program ?(config = default_config) g (x : Transforms.Xform.t) site =
  let t0 = Unix.gettimeofday () in
  match valid_copy (Transforms.Xform.apply_copy x g site) with
  | Error msg -> (Fail (invalid_failing msg), Unix.gettimeofday () -. t0)
  | Ok transformed ->
      (* whole-program pseudo-cutout: inputs and system state are all
         externally visible containers *)
      let ext = Graph.external_containers g in
      let cut =
        {
          Cutout.program = g;
          kind = Cutout.Multistate { states = Graph.state_ids g };
          input_config = ext;
          system_state = ext;
          free_symbols = Graph.all_free_syms g;
        }
      in
      let constraints =
        Constraints.derive ~max_size:config.max_size ~custom:config.custom_constraints
          ~original:g cut
      in
      let verdict =
        run_trials ~config ~constraints ~cut ~original_prog:g ~transformed_prog:transformed
      in
      (verdict, Unix.gettimeofday () -. t0)
