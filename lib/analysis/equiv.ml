open Symbolic
open Sdfg

type witness = {
  valuation : (string * int) list;
  container : string;
  element : int list option;
  reason : string;
}

type verdict = Equivalent of Certificate.t | Refuted of witness | Unknown of string

let verdict_name = function
  | Equivalent _ -> "equivalent"
  | Refuted _ -> "refuted"
  | Unknown _ -> "unknown"

let pp_witness fmt w =
  Format.fprintf fmt "%s under {%s}" w.reason
    (String.concat ", "
       (List.map (fun (s, v) -> Printf.sprintf "%s=%d" s v) w.valuation));
  match w.element with
  | Some el ->
      Format.fprintf fmt " at %s[%s]" w.container
        (String.concat "," (List.map string_of_int el))
  | None -> Format.fprintf fmt " (container %s)" w.container

let pp_verdict fmt = function
  | Equivalent c -> Format.fprintf fmt "equivalent@\n%a" Certificate.pp c
  | Refuted w -> Format.fprintf fmt "refuted: %a" pp_witness w
  | Unknown why -> Format.fprintf fmt "unknown: %s" why

let default_size = 8

(* A transformation-introduced static error refutes equivalence outright; the
   caller's concretization (or the default size for every symbol) is the seed
   valuation handed to the fuzzer. *)
let refute_from_delta ~valuation (f : Report.finding) =
  Refuted
    {
      valuation;
      container = f.container;
      element = None;
      reason =
        Printf.sprintf "introduces a %s finding: %s" (Report.pass_name f.pass)
          f.detail;
    }

let refute_or_unknown ?deps ~bounds ~valuation mismatches =
  let concrete (c, side, pa, pb) =
    match (pa, pb) with
    | Some a, Some b -> (
        (* a Fourier-Motzkin model of the symmetric difference at the
           reference valuation is a verified witness *)
        match Deps.difference_witness ?memo:deps ~bounds ~symbols:valuation a b with
        | Some (va, el) ->
            Some
              (Refuted
                 {
                   valuation = va;
                   container = c;
                   element = Some el;
                   reason =
                     Printf.sprintf "propagated %s set of %s differs"
                       (Certificate.side_name side) c;
                 })
        | None -> None)
    | _ -> None
  in
  match List.filter_map concrete mismatches with
  | r :: _ -> r
  | [] -> (
      (* no concrete element witness; a one-sided footprint is still a
         definite symbolic difference worth seeding the fuzzer with *)
      match List.find_opt (fun (_, _, pa, pb) -> pa = None || pb = None) mismatches with
      | Some (c, side, pa, _) ->
          Refuted
            {
              valuation;
              container = c;
              element = None;
              reason =
                Printf.sprintf "%s is %s only in the %s version" c
                  (match side with Certificate.Read -> "read" | Write -> "written")
                  (if pa = None then "transformed" else "original");
            }
      | None ->
          let c, side, _, _ = List.hd mismatches in
          Unknown
            (Printf.sprintf
               "propagated %s set of %s differs symbolically; no concrete witness found"
               (Certificate.side_name side) c))

let decide ?(use_intervals = true) ?memo ~symbols ~delta g copy (x : Transforms.Xform.t) site =
  (* program parameters: declared symbols, anything a container shape
     mentions, and whatever the caller chose to concretize — hand-built
     graphs do not always call [add_symbol] *)
  let declared =
    let shape_syms =
      List.concat_map
        (fun (_, (d : Graph.datadesc)) -> List.concat_map Expr.free_syms d.shape)
        (Graph.containers g)
    in
    List.sort_uniq compare (Graph.symbols g @ shape_syms @ List.map fst symbols)
  in
  let valuation =
    List.map
      (fun s ->
        (s, match List.assoc_opt s symbols with Some v -> v | None -> default_size))
      declared
  in
  (* only an admitted copy is analyzed: equal summaries say nothing
     about well-formed code, and only a valid copy may skip its fuzz trials.
     Then any introduced error refutes; so does an introduced race at any
     severity — a carried-dependence warning that was not there before means
     the transformation reordered accesses to concretely overlapping
     elements, which is exactly the divergence the fuzzer should chase *)
  match
    ( copy,
      List.filter
        (fun (f : Report.finding) -> f.severity = Report.Error || f.pass = Report.Race)
        delta )
  with
  | Error e, _ ->
      Unknown (Format.asprintf "the transformed program fails validation: %a" Validate.pp_error e)
  | Ok _, f :: _ -> refute_from_delta ~valuation f
  | Ok g', [] -> (
      let g' = (g' : Validate.valid :> Graph.t) in
      (* Interstate-assigned symbols (loop counters, alias chains) are not
         program parameters, so a summary mentioning one is normally
         undecidable. When the transformation leaves the interstate CFG
         untouched, such a symbol runs through the {e same} value sequence on
         both sides — it can be admitted into the comparison as an opaque
         parameter, with the interval fixpoint supplying its bounds. Only
         symbols the fixpoint actually bounds are admitted. *)
      let cfg_untouched =
        (Sdfg.Diff.compute ~original:g ~transformed:g').Sdfg.Diff.states = []
      in
      let interval_facts =
        if use_intervals && cfg_untouched then Intervals.facts ~symbols g else []
      in
      let admitted_bounds = Intervals.concrete_bounds ~symbols g interval_facts in
      let admitted = List.map fst admitted_bounds in
      let comparable = declared @ admitted in
      (* program sizes are at least 1; admitted loop symbols carry their
         inferred interval; everything else is unconstrained *)
      let bounds s =
        if List.mem s declared then (Some 1, None)
        else
          match List.assoc_opt s admitted_bounds with
          | Some b -> b
          | None -> (None, None)
      in
      let summarize h = Propagate.summarize ~bounds ~accesses:(Reuse.accesses memo h) h in
      let deps = Reuse.deps memo in
      let pre = summarize g and post = summarize g' in
      let stray su =
        List.filter
          (fun s -> not (List.mem s comparable))
          (Propagate.free_syms_of_summary su)
      in
      match stray pre @ stray post with
      | s :: _ ->
          Unknown
            (Printf.sprintf
               "summary mentions symbol %s that propagation could not eliminate" s)
      | [] -> (
          let externals =
            List.sort_uniq compare
              (Graph.external_containers g @ Graph.external_containers g')
          in
          let entries = ref [] and mismatches = ref [] in
          List.iter
            (fun c ->
              List.iter
                (fun (side, pre_l, post_l) ->
                  match (List.assoc_opt c pre_l, List.assoc_opt c post_l) with
                  | None, None -> ()
                  | Some a, Some b when Subset.equal ~bounds a b ->
                      entries :=
                        { Certificate.container = c; side; pre = a; post = b }
                        :: !entries
                  | Some a, Some b when Deps.equal_sets ?memo:deps ~bounds a b ->
                      (* linear normal form differs, but the exact engine
                         proves both difference directions empty: same element
                         set for every admitted symbol valuation *)
                      entries :=
                        { Certificate.container = c; side; pre = a; post = b }
                        :: !entries
                  | pa, pb -> mismatches := (c, side, pa, pb) :: !mismatches)
                [
                  (Certificate.Read, pre.Propagate.reads, post.Propagate.reads);
                  (Certificate.Write, pre.writes, post.writes);
                ])
            externals;
          let wcr_ok =
            List.for_all
              (fun c -> List.mem c pre.wcr_writes = List.mem c post.wcr_writes)
              externals
          in
          (* order is compared per container, over containers live on both
             sides: transients that the transformation removed (or introduced)
             cannot affect externally visible dataflow once the external sets
             match, but surviving ones must keep their access order *)
          let names (su : Propagate.summary) =
            List.sort_uniq compare (List.map fst (su.reads @ su.writes))
          in
          let shared = List.filter (fun c -> List.mem c (names post)) (names pre) in
          let ev c o = List.filter (fun (c', _) -> c' = c) o in
          let reordered =
            List.filter (fun c -> ev c pre.order <> ev c post.order) shared
          in
          (* a container whose event order changed can still be admitted when
             its write-projected order is intact and its read set is provably
             disjoint from its write set on both sides: reads commute with
             writes they can never touch *)
          let waiver_of c =
            let wproj o = List.filter (fun (_, k) -> k <> `R) (ev c o) in
            if wproj pre.order <> wproj post.order then None
            else
              let side_rw (su : Propagate.summary) =
                match (List.assoc_opt c su.Propagate.reads, List.assoc_opt c su.writes) with
                | Some r, Some w ->
                    if Deps.disjoint_under ?memo:deps ~bounds r w then Some (Some (r, w))
                    else None
                | _ -> Some None
              in
              match (side_rw pre, side_rw post) with
              | Some pre_rw, Some post_rw -> Some { Certificate.w_container = c; pre_rw; post_rw }
              | _ -> None
          in
          let waivers = List.filter_map waiver_of reordered in
          let order_ok = List.length waivers = List.length reordered in
          match (List.rev !mismatches, wcr_ok, order_ok) with
          | [], true, true -> (
              let keep o = List.filter (fun (c, _) -> List.mem c shared) o in
              let cert =
                {
                  Certificate.xform = x.name;
                  site = Format.asprintf "%a" Transforms.Xform.pp_site site;
                  assumed = List.map (fun s -> (s, bounds s)) comparable;
                  entries = List.rev !entries;
                  order_pre = keep pre.order;
                  order_post = keep post.order;
                  waivers;
                }
              in
              if not (Certificate.check cert) then
                Unknown "certificate failed its own re-check"
              else
                match x.certify_hint with
                | Some (Known_unsound why) ->
                    Unknown
                      (Printf.sprintf
                         "summaries match but the transformation is marked unsound (%s)"
                         why)
                | _ -> Equivalent cert)
          | [], false, _ -> Unknown "write-conflict-resolution targets changed"
          | [], _, false -> Unknown "per-container access order changed"
          | ms, _, _ -> refute_or_unknown ?deps ~bounds ~valuation ms))

let certify ?use_intervals ?memo ?(symbols = []) g x site =
  match Transforms.Xform.apply_copy x g site with
  | Error _ -> None
  | Ok (g', _) ->
      let memo = match memo with Some m -> m | None -> Delta.create_memo () in
      let copy = Validate.admit g' in
      let delta, _ = Delta.between ~memo ~symbols g copy in
      Some (decide ?use_intervals ~memo ~symbols ~delta g copy x site)
