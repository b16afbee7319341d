(* The difftest trial loop, stage by stage, for the traced re-drive.

   This is the only file of the benchmark that names the interpreter tiers.
   It mirrors [Fuzzyflow.Difftest.run_trials] step for step — same RNG
   order, same cache keys, same comparison fold — so its verdicts are
   byte-identical to the program's, and wraps each call into a layer in a
   span. When the library's trial loop changes, this file is the one place
   the benchmark has to follow it; the untraced run never depends on it. *)

open Fuzzyflow

(* Compiled-program caches with the lifetimes the program gives them: one
   256-entry plan cache shared by every instance of a serial
   [Campaign.run] (kernels are not shared there), and fresh caches per
   instance in an engine worker. *)
type caches = { plan : Interp.Plan.Cache.t; kernel : Interp.Kernel.Cache.t option }

let campaign_caches () = { plan = Interp.Plan.Cache.create ~capacity:256 (); kernel = None }

let instance_caches () =
  { plan = Interp.Plan.Cache.create (); kernel = Some (Interp.Kernel.Cache.create ()) }

let steps_of = function
  | Ok (o : Interp.Exec.outcome) -> o.steps
  | Error (Interp.Exec.Hang { steps }) -> steps
  | Error _ -> 0

let is_hang = function Error (Interp.Exec.Hang _) -> true | _ -> false

(* A cache lookup, counted as a hit or a compile from the cache's own
   statistics. *)
let lookup tr ~stats compile =
  let h0, m0 = stats () in
  let r = Trace.with_span tr "interp.compile" compile in
  let h1, m1 = stats () in
  Trace.add tr "interp.cache_hits" (float_of_int (h1 - h0));
  Trace.add tr "interp.compiles" (float_of_int (m1 - m0));
  r

(* One execution of one side: its span, steps and hang time. *)
let exec tr name run =
  let r = Trace.with_span tr name run in
  let hung = Array.fold_left (fun n o -> if is_hang o then n + 1 else n) 0 r in
  Trace.add tr "interp.steps" (float_of_int (Array.fold_left (fun n o -> n + steps_of o) 0 r));
  if hung > 0 then
    Trace.add tr "interp.hang_s"
      (Trace.last_duration tr *. float_of_int hung /. float_of_int (Array.length r));
  r

let count_trial tr o1 o2 =
  Trace.add tr "interp.trials" 1.;
  if is_hang o1 || is_hang o2 then Trace.add tr "interp.hang_trials" 1.

let compare tr ~(config : Difftest.config) ~(cut : Cutout.t) o1 o2 =
  count_trial tr o1 o2;
  Trace.with_span tr "difftest.compare" (fun () ->
      Difftest.compare_outcomes ~threshold:config.threshold ~system_state:cut.system_state o1 o2)

let sample tr rng constraints cut =
  Trace.with_span tr "sampler.sample" (fun () ->
      let r = Sampler.split rng in
      let symbols = Sampler.sample_symbols r constraints in
      let inputs = Sampler.sample_inputs r constraints cut ~symbols in
      (symbols, inputs))

let verdict ~(config : Difftest.config) ~failures first =
  match first with
  | None -> Difftest.Pass
  | Some (first_trial, kind, symbols) ->
      let klass =
        if failures = config.trials then Difftest.Semantics else Difftest.Input_dependent
      in
      Difftest.Fail { klass; first_trial; failing_trials = failures; kind; symbols }

let run tr caches ~(config : Difftest.config) ~constraints ~(cut : Cutout.t) ~original_prog
    ~transformed_prog =
  let icfg =
    { Interp.Exec.default_config with step_limit = config.step_limit; collect_coverage = false }
  in
  let icfg_x = { icfg with Interp.Exec.inject = config.inject_transformed } in
  if config.batch <= 1 then begin
    let cache = caches.plan in
    let digest g = Trace.with_span tr "interp.digest" (fun () -> Interp.Plan.Cache.digest_of g) in
    let dig_o = digest original_prog in
    let dig_x = digest transformed_prog in
    let run_side name ~config:icfg ~digest prog ~symbols ~inputs =
      let compiled =
        lookup tr
          ~stats:(fun () -> Interp.Plan.Cache.stats cache)
          (fun () -> Interp.Plan.Cache.compile ~digest cache prog ~symbols)
      in
      match compiled with
      | Error f -> Error f
      | Ok p -> (exec tr name (fun () -> [| Interp.Plan.execute ~config:icfg p ~inputs |])).(0)
    in
    let rng = Sampler.create config.seed in
    let failures = ref 0 in
    let first = ref None in
    for trial = 1 to config.trials do
      let symbols, inputs = sample tr rng constraints cut in
      let o1 =
        run_side "interp.exec_original" ~config:icfg ~digest:dig_o original_prog ~symbols ~inputs
      in
      let o2 =
        run_side "interp.exec_transformed" ~config:icfg_x ~digest:dig_x transformed_prog ~symbols
          ~inputs
      in
      match compare tr ~config ~cut o1 o2 with
      | None -> ()
      | Some kind ->
          incr failures;
          if !first = None then first := Some (trial, kind, symbols)
    done;
    verdict ~config ~failures:!failures !first
  end
  else begin
    let kcache = match caches.kernel with Some c -> c | None -> Interp.Kernel.Cache.create () in
    let digest g = Trace.with_span tr "interp.digest" (fun () -> Interp.Kernel.Cache.digest_of g) in
    let dig_o = digest original_prog in
    let dig_x = digest transformed_prog in
    let rng = Sampler.create config.seed in
    let descs = Array.init config.trials (fun _ -> sample tr rng constraints cut) in
    let groups : ((string * int) list, int list ref) Hashtbl.t = Hashtbl.create 8 in
    let order = ref [] in
    Array.iteri
      (fun i (symbols, _) ->
        let key = List.sort Stdlib.compare symbols in
        match Hashtbl.find_opt groups key with
        | Some l -> l := i :: !l
        | None ->
            Hashtbl.add groups key (ref [ i ]);
            order := key :: !order)
      descs;
    let kinds = Array.make config.trials None in
    let compile ~digest prog ~symbols =
      lookup tr
        ~stats:(fun () -> Interp.Kernel.Cache.stats kcache)
        (fun () -> Interp.Kernel.Cache.compile ~digest kcache prog ~symbols)
    in
    let run_side name ~config:icfg kres lanes inputs =
      match kres with
      | Error f -> Array.map (fun _ -> Error f) lanes
      | Ok k -> exec tr name (fun () -> Interp.Kernel.execute_batch ~config:icfg k ~inputs)
    in
    List.iter
      (fun key ->
        let idxs = Array.of_list (List.rev !(Hashtbl.find groups key)) in
        let symbols, _ = descs.(idxs.(0)) in
        let k_o = compile ~digest:dig_o original_prog ~symbols in
        let k_x = compile ~digest:dig_x transformed_prog ~symbols in
        let n = Array.length idxs in
        let chunk = ref 0 in
        while !chunk < n do
          let w = min config.batch (n - !chunk) in
          let lanes = Array.sub idxs !chunk w in
          let inputs = Array.map (fun i -> snd descs.(i)) lanes in
          let outs_o = run_side "interp.exec_original" ~config:icfg k_o lanes inputs in
          let outs_x = run_side "interp.exec_transformed" ~config:icfg_x k_x lanes inputs in
          Array.iteri (fun j i -> kinds.(i) <- compare tr ~config ~cut outs_o.(j) outs_x.(j)) lanes;
          chunk := !chunk + w
        done)
      (List.rev !order);
    let failures = ref 0 in
    let first = ref None in
    Array.iteri
      (fun i kind ->
        match kind with
        | None -> ()
        | Some kind ->
            incr failures;
            if !first = None then first := Some (i + 1, kind, fst descs.(i)))
      kinds;
    verdict ~config ~failures:!failures !first
  end
