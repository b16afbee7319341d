(* The exact affine dependence engine: the Fourier–Motzkin core against brute
   force, subset queries against exhaustive enumeration, witness replay, the
   stride-preserving tile widening it depends on, and corpus-wide
   exact-vs-sampled consistency. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
module L = Symbolic.Linsys

let n = Expr.sym "N"
let i = Expr.int

(* ---- Fourier–Motzkin core vs brute-force enumeration ---------------------- *)

(* Deterministic pseudo-random small systems over x, y, z in [-5, 5]. *)
let rand_system st =
  let vars = [ "x"; "y"; "z" ] in
  let rand_lin () =
    L.of_terms
      (Random.State.int st 11 - 5)
      (List.filter_map
         (fun v ->
           match Random.State.int st 4 - 2 with 0 -> None | c -> Some (v, c))
         vars)
  in
  List.init
    (1 + Random.State.int st 4)
    (fun _ ->
      let l = rand_lin () in
      if Random.State.int st 4 = 0 then L.Eq0 l else L.Ge0 l)

let brute_sat sys =
  let sols = ref [] in
  for x = -5 to 5 do
    for y = -5 to 5 do
      for z = -5 to 5 do
        let v = [ ("x", x); ("y", y); ("z", z) ] in
        if List.for_all (L.holds v) sys then sols := v :: !sols
      done
    done
  done;
  !sols

(* box the variables so the solver's search space matches the enumeration *)
let boxed sys =
  List.concat_map
    (fun v -> [ L.ge (L.var v) (L.const (-5)); L.le (L.var v) (L.const 5) ])
    [ "x"; "y"; "z" ]
  @ sys

let linsys_tests =
  [
    Alcotest.test_case "solve agrees with brute force on 200 random systems" `Quick (fun () ->
        let st = Random.State.make [| 4217 |] in
        for _ = 1 to 200 do
          let sys = rand_system st in
          let sols = brute_sat sys in
          match L.solve (boxed sys) with
          | L.Unsat ->
              Alcotest.(check int)
                ("unsat but brute force found "
                ^ String.concat " " (List.map L.cstr_to_string sys))
                0 (List.length sols)
          | L.Sat m ->
              Alcotest.(check bool) "model satisfies every constraint" true
                (List.for_all (L.holds m) (boxed sys))
          | L.Unknown -> () (* never wrong, merely undecided *)
        done);
    Alcotest.test_case "gcd pre-test proves parity conflicts unsat" `Quick (fun () ->
        (* 2x = 2k + 1 has no integer solution *)
        let sys =
          [ L.eq (L.var ~coeff:2 "x") (L.add (L.var ~coeff:2 "k") (L.const 1)) ]
        in
        Alcotest.(check bool) "unsat" true (L.solve sys = L.Unsat));
    Alcotest.test_case "of_expr alternatives evaluate to the expression" `Quick (fun () ->
        let exprs =
          [
            Expr.min_ (Expr.add n (i 3)) (i 7);
            Expr.max_ n (Expr.sub (i 10) n);
            Expr.add (Expr.mul (i 2) n) (i 1);
            Expr.div n (i 3);
            Expr.modulo n (i 4);
          ]
        in
        List.iter
          (fun e ->
            match L.of_expr ~fresh:(L.gensym ()) e with
            | None -> Alcotest.fail "expected an affine lowering"
            | Some alts ->
                for v = 0 to 12 do
                  let env = [ ("N", v) ] in
                  let expected = Expr.eval (Expr.Env.of_list env) e in
                  (* exactly the alternatives whose guards admit v must agree;
                     aux variables are existential, so solve for them *)
                  let admitted =
                    List.filter
                      (fun (a : L.alt) ->
                        let pinned = L.eq (L.var "N") (L.const v) in
                        match L.solve (pinned :: a.L.guards) with
                        | L.Sat m -> L.eval_lin (("N", v) :: m) a.L.term = expected
                        | _ -> false)
                      alts
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "some alternative covers N=%d" v)
                    true (admitted <> [])
                done)
          exprs);
  ]

(* ---- subset queries vs exhaustive enumeration ----------------------------- *)

let unbounded _ = (None, None)
let range lo hi step = { Subset.lo; hi; step }

let elements env sub =
  (* all concrete index tuples of [sub] under [env] *)
  let per_dim (r : Subset.range) =
    Subset.crange_elements (Subset.concretize_range env r)
  in
  List.fold_right
    (fun r acc ->
      List.concat_map (fun e -> List.map (fun rest -> e :: rest) acc) (per_dim r))
    sub [ [] ]

let deps_tests =
  [
    Alcotest.test_case "overlap agrees with enumeration on concrete boxes" `Quick (fun () ->
        (* write A[2i : 2i+1], access A[2i' : 2i'+1] over i, i' in [0:3]:
           distinct iterations never share an element *)
        let two_i p = Expr.mul (i 2) (Expr.sym p) in
        let write = [ range (two_i "i") (Expr.add (two_i "i") (i 1)) (i 1) ] in
        let access = [ range (two_i "i'") (Expr.add (two_i "i'") (i 1)) (i 1) ] in
        let params = [ ("i", { Subset.clo = 0; chi = 3; cstep = 1 }) ] in
        let v =
          Analysis.Deps.overlap ~env:Expr.Env.empty ~bounds:unbounded ~params
            ~primed:[ ("i", "i'") ] write access
        in
        Alcotest.(check bool) "disjoint" true (v = Analysis.Deps.Disjoint);
        (* overlapping stencil: A[i : i+1] vs A[i' : i'+1] *)
        let w2 = [ range (Expr.sym "i") (Expr.add (Expr.sym "i") (i 1)) (i 1) ] in
        let a2 = [ range (Expr.sym "i'") (Expr.add (Expr.sym "i'") (i 1)) (i 1) ] in
        match
          Analysis.Deps.overlap ~env:Expr.Env.empty ~bounds:unbounded ~params
            ~primed:[ ("i", "i'") ] w2 a2
        with
        | Analysis.Deps.Overlap model ->
            (* the witness must be two distinct in-domain iterations whose
               intervals genuinely intersect *)
            let at p = List.assoc p model in
            let x = at "i" and x' = at "i'" in
            Alcotest.(check bool) "distinct" true (x <> x');
            Alcotest.(check bool) "in domain" true (x >= 0 && x <= 3 && x' >= 0 && x' <= 3);
            Alcotest.(check bool) "intervals intersect" true (abs (x - x') <= 1)
        | _ -> Alcotest.fail "expected a verified overlap witness");
    Alcotest.test_case "empty iteration domain is disjoint" `Quick (fun () ->
        let w = [ range (Expr.sym "i") (Expr.sym "i") (i 1) ] in
        let a = [ range (Expr.sym "i'") (Expr.sym "i'") (i 1) ] in
        let params = [ ("i", { Subset.clo = 0; chi = -1; cstep = 1 }) ] in
        Alcotest.(check bool) "disjoint" true
          (Analysis.Deps.overlap ~env:Expr.Env.empty ~bounds:unbounded ~params
             ~primed:[ ("i", "i'") ] w a
          = Analysis.Deps.Disjoint));
    Alcotest.test_case "equal_sets: same grid under different spellings" `Quick (fun () ->
        let bounds s = if s = "N" then (Some 1, None) else (None, None) in
        (* {0,2,4,6,8} written two ways *)
        let a = [ range (i 0) (i 9) (i 2) ] in
        let b = [ range (i 0) (i 8) (i 2) ] in
        Alcotest.(check bool) "strided equal" true (Analysis.Deps.equal_sets ~bounds a b);
        (* dense vs strided differ *)
        let c = [ range (i 0) (i 9) (i 1) ] in
        Alcotest.(check bool) "dense vs strided" false
          (Analysis.Deps.equal_sets ~bounds a c);
        (* symbolic: [0:N-1] = [0:N-1] but not [1:N-1] *)
        let d = [ range (i 0) (Expr.sub n (i 1)) (i 1) ] in
        let d' = [ range (i 0) (Expr.sub n (i 1)) (i 1) ] in
        let e = [ range (i 1) (Expr.sub n (i 1)) (i 1) ] in
        Alcotest.(check bool) "symbolic equal" true (Analysis.Deps.equal_sets ~bounds d d');
        Alcotest.(check bool) "shifted differs" false (Analysis.Deps.equal_sets ~bounds d e));
    Alcotest.test_case "difference witness is pinned, in-set, and replayable" `Quick (fun () ->
        let bounds s = if s = "N" then (Some 1, None) else (None, None) in
        let dense = [ range (i 0) (Expr.sub n (i 1)) (i 1) ] in
        let strided = [ range (i 0) (Expr.sub n (i 1)) (i 2) ] in
        match
          Analysis.Deps.difference_witness ~bounds ~symbols:[ ("N", 8) ] dense strided
        with
        | None -> Alcotest.fail "expected a witness"
        | Some (va, el) ->
            Alcotest.(check (list (pair string int))) "pinned to the concretization"
              [ ("N", 8) ] va;
            let env = Expr.Env.of_list va in
            let in_set sub e = List.mem e (elements env sub) in
            Alcotest.(check bool) "element in the dense set" true (in_set dense el);
            Alcotest.(check bool) "element off the stride" false (in_set strided el));
    Alcotest.test_case "no witness when sets differ only at degenerate sizes" `Quick
      (fun () ->
        let bounds s = if s = "N" then (Some 1, None) else (None, None) in
        (* [min(1,N-2) : max(1,N-2)] vs [1 : N-2]: same set for N >= 3, garbage
           below — pinned at N=8 there is no difference to report *)
        let a =
          [
            range
              (Expr.min_ (i 1) (Expr.sub n (i 2)))
              (Expr.max_ (i 1) (Expr.sub n (i 2)))
              (i 1);
          ]
        in
        let b = [ range (i 1) (Expr.sub n (i 2)) (i 1) ] in
        Alcotest.(check bool) "no spurious witness" true
          (Analysis.Deps.difference_witness ~bounds ~symbols:[ ("N", 8) ] a b = None));
    Alcotest.test_case "uncovered is one-directional" `Quick (fun () ->
        let bounds s = if s = "N" then (Some 1, None) else (None, None) in
        let small = [ range (i 1) (Expr.sub n (i 2)) (i 1) ] in
        let big = [ range (i 0) (Expr.sub n (i 1)) (i 1) ] in
        (* a read strictly inside the write set is fine... *)
        Alcotest.(check bool) "subset read is covered" true
          (Analysis.Deps.uncovered ~bounds ~symbols:[ ("N", 8) ] small big = None);
        (* ...but a read poking outside it has a witness *)
        match Analysis.Deps.uncovered ~bounds ~symbols:[ ("N", 8) ] big small with
        | Some (va, [ e ]) ->
            Alcotest.(check (list (pair string int))) "pinned" [ ("N", 8) ] va;
            Alcotest.(check bool) "witness element outside the write set" true
              (e = 0 || e = 7)
        | _ -> Alcotest.fail "expected a one-element witness");
  ]

(* ---- the stride-preserving widenings the refutations rest on -------------- *)

let propagate_tests =
  [
    Alcotest.test_case "bare-parameter index image keeps the map stride" `Quick (fun () ->
        let prange = range (i 0) (Expr.sub n (i 1)) (i 2) in
        let r = Sdfg.Propagate.widen_range ~param:"p" ~prange (range (Expr.sym "p") (Expr.sym "p") (i 1)) in
        Alcotest.(check string) "image is the map range" "[0:N - 1:2]"
          (Subset.to_string [ r ]));
    Alcotest.test_case "aligned tile of a strided inner range stays strided" `Quick (fun () ->
        (* inner [p : min(p+31, N-2) : 2] over tiles p ∈ [1 : N-2 : 32] *)
        let h = Expr.sub n (i 2) in
        let prange = range (i 1) h (i 32) in
        let inner =
          range (Expr.sym "p") (Expr.min_ (Expr.add (Expr.sym "p") (i 31)) h) (i 2)
        in
        let r = Sdfg.Propagate.widen_range ~param:"p" ~prange inner in
        Alcotest.(check string) "exact strided union" "[1:N - 2:2]"
          (Subset.to_string [ r ]);
        (* guard: a tile span shorter than one period must NOT take the exact
           case (the union has holes a strided range cannot express) *)
        let short =
          range (Expr.sym "p") (Expr.min_ (Expr.add (Expr.sym "p") (i 7)) h) (i 2)
        in
        let r' = Sdfg.Propagate.widen_range ~param:"p" ~prange short in
        Alcotest.(check bool) "short span collapses to the dense box" true
          (r'.Subset.step = Expr.one));
  ]

(* ---- corpus-wide consistency and determinism ------------------------------ *)

let all_workloads () = Workloads.Npbench.all () @ Workloads.Npb_frontend.all ()

let symbols_of g =
  List.filter
    (fun (s, _) -> List.mem s (Sdfg.Graph.all_free_syms g))
    [ ("N", 8); ("T", 3) ]

let corpus_tests =
  [
    Alcotest.test_case "exact tier never contradicts the sampled tier" `Slow (fun () ->
        (* a sampled race witness is a concrete overlap, so a sound exact tier
           can only add findings (by deciding pairs sampling missed), never
           lose one *)
        List.iter
          (fun (name, g) ->
            let flagged exact =
              let fs, _ =
                Analysis.Races.check_stats ~carried:true ~exact ~symbols:(symbols_of g) g
              in
              List.sort_uniq compare
                (List.map
                   (fun (f : Analysis.Report.finding) -> (f.state, f.container))
                   fs)
            in
            let on = flagged true and off = flagged false in
            List.iter
              (fun k ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: sampled race also flagged exactly" name)
                  true (List.mem k on))
              off)
          (all_workloads ()));
    Alcotest.test_case "every intra-scope pair on the corpus is decided exactly" `Slow
      (fun () ->
        let total =
          List.fold_left
            (fun acc (_, g) ->
              let _, s =
                Analysis.Oracle.analyze_stats ~carried:true ~symbols:(symbols_of g) g
              in
              Analysis.Races.stats_add acc s)
            Analysis.Races.stats_zero (all_workloads ())
        in
        Alcotest.(check bool) "corpus exercises the engine" true
          (total.Analysis.Races.pairs > 0);
        Alcotest.(check int) "no pair fell back to sampling" 0
          total.Analysis.Races.sampled);
    Alcotest.test_case "analysis is deterministic" `Slow (fun () ->
        List.iter
          (fun (name, g) ->
            let run () =
              let fs, s =
                Analysis.Oracle.analyze_stats ~carried:true ~symbols:(symbols_of g) g
              in
              (List.map Analysis.Report.to_string fs, s)
            in
            let a = run () and b = run () in
            Alcotest.(check bool) (name ^ " identical") true (a = b))
          (all_workloads ()));
  ]

(* ---- the query table: one memo never changes an answer ------------------- *)

module D = Analysis.Deps
module G = QCheck.Gen

(* Everything a query is asked under. [env] pins symbols for [overlap],
   [valuation] for the witness searches. *)
type ctx = {
  env : (string * int) list;
  bounds : (string * (int option * int option)) list;
  params : (string * Subset.crange) list;
  primed : (string * string) list;
  valuation : (string * int) list;
}

type query = Overlap | Equal_sets | Disjoint_under | Uncovered | Difference_witness

let queries = [ Overlap; Equal_sets; Disjoint_under; Uncovered; Difference_witness ]

type answer =
  | Verdict of D.verdict
  | Holds of bool
  | Witness of ((string * int) list * int list) option

let ask ?memo q (a, b) c =
  let bounds s = Option.value ~default:(None, None) (List.assoc_opt s c.bounds) in
  let symbols = c.valuation in
  match q with
  | Overlap ->
      Verdict
        (D.overlap ?memo ~env:(Expr.Env.of_list c.env) ~bounds ~params:c.params
           ~primed:c.primed a b)
  | Equal_sets -> Holds (D.equal_sets ?memo ~bounds a b)
  | Disjoint_under -> Holds (D.disjoint_under ?memo ~bounds a b)
  | Uncovered -> Witness (D.uncovered ?memo ~bounds ~symbols a b)
  | Difference_witness -> Witness (D.difference_witness ?memo ~bounds ~symbols a b)

(* up to two free program symbols; the write ranges over i, j and the
   access over their primed copies *)
let syms = [ "N"; "M" ]

let gen_affine vars =
  G.(
    let* c0 = int_range (-2) 5 in
    let* terms = list_size (int_range 0 2) (pair (oneofl vars) (int_range 1 2)) in
    return
      (List.fold_left
         (fun e (v, c) -> Expr.add e (Expr.mul (i c) (Expr.sym v)))
         (i c0) terms))

let gen_range ?lo vars =
  G.(
    let* lo = match lo with Some e -> return e | None -> gen_affine vars in
    let* extent =
      oneof
        [
          map i (int_range 0 4);
          map (fun s -> Expr.sub (Expr.sym s) (i 1)) (oneofl syms);
        ]
    in
    let* step = int_range 1 4 in
    return (range lo (Expr.add lo extent) (i step)))

(* 1-3 dimensions; [with_n] makes N free in the write's first dimension *)
let gen_pair ?(with_n = false) () =
  G.(
    let* dims = int_range 1 3 in
    let* first =
      if with_n then map (fun e -> Expr.add (Expr.sym "N") e) (gen_affine [ "i"; "j" ])
      else gen_affine ([ "i"; "j" ] @ syms)
    in
    let* w0 = gen_range ~lo:first ([ "i"; "j" ] @ syms) in
    let* w = list_repeat (dims - 1) (gen_range ([ "i"; "j" ] @ syms)) in
    let* a = list_repeat dims (gen_range ([ "i'"; "j'" ] @ syms)) in
    return (w0 :: w, a))

let gen_bound =
  G.(
    let* lo = opt (int_range 0 6) in
    let* hi = opt (int_range 0 9) in
    return (lo, Option.map (fun h -> h + Option.value ~default:0 lo) hi))

let gen_crange =
  G.(
    let* clo = int_range 0 3 in
    let* len = int_range (-1) 6 in
    let* cstep = int_range 1 3 in
    return { Subset.clo; chi = clo + len; cstep })

let gen_ctx =
  G.(
    let* pins = list_repeat 2 (opt (int_range 1 10)) in
    let* bounds = list_repeat 2 gen_bound in
    let* ci, cj = pair gen_crange gen_crange in
    let pinned =
      List.filter_map (fun (s, v) -> Option.map (fun v -> (s, v)) v) (List.combine syms pins)
    in
    return
      {
        env = pinned;
        bounds = List.combine syms bounds;
        params = [ ("i", ci); ("j", cj) ];
        primed = [ ("i", "i'"); ("j", "j'") ];
        valuation = pinned;
      })

(* a context next to [c] that a careless key would confuse with it *)
let gen_variant c =
  G.(
    let* s = oneofl syms in
    let* v = int_range 1 10 in
    let* b = gen_bound in
    oneofl
      [
        { c with env = (s, v) :: List.remove_assoc s c.env };
        { c with env = List.remove_assoc s c.env };
        { c with bounds = (s, b) :: List.remove_assoc s c.bounds };
        { c with valuation = (s, v) :: List.remove_assoc s c.valuation };
        { c with env = ("K", v) :: c.env; valuation = c.valuation @ [ ("K", v) ] };
        { c with params = ("i", { Subset.clo = 0; chi = v; cstep = 1 }) :: List.tl c.params };
      ])

let print_pair (a, b) = Subset.to_string a ^ " vs " ^ Subset.to_string b

let print_ctx c =
  let kv l = String.concat "," (List.map (fun (s, v) -> Printf.sprintf "%s=%d" s v) l) in
  let opt = function Some n -> string_of_int n | None -> "_" in
  Printf.sprintf "{env %s; bounds %s; valuation %s; params %s}" (kv c.env)
    (String.concat ","
       (List.map (fun (s, (lo, hi)) -> Printf.sprintf "%s:%s..%s" s (opt lo) (opt hi)) c.bounds))
    (kv c.valuation)
    (String.concat ","
       (List.map
          (fun (p, (r : Subset.crange)) -> Printf.sprintf "%s=%d:%d:%d" p r.clo r.chi r.cstep)
          c.params))

(* a few pairs, each asked every query under a base context and its
   variants, in random order *)
let gen_session =
  G.(
    let* pairs = list_size (int_range 1 3) (gen_pair ()) in
    let* base = gen_ctx in
    let* variants = list_size (int_range 2 4) (gen_variant base) in
    let asks =
      List.concat_map
        (fun q -> List.concat_map (fun p -> List.map (fun c -> (q, p, c)) (base :: variants)) pairs)
        queries
    in
    shuffle_l asks)

let arb_session =
  QCheck.make
    ~print:(fun asks ->
      String.concat "\n" (List.map (fun (_, p, c) -> print_pair p ^ " under " ^ print_ctx c) asks))
    gen_session

let prop_memo_answers =
  QCheck.Test.make ~name:"every query through one memo gives its memo-less answer" ~count:150
    arb_session (fun asks ->
      let memo = D.create_memo () in
      List.for_all (fun (q, p, c) -> ask ~memo q p c = ask q p c) asks)

(* [q] through [memo] computes ([`Miss]) or is served ([`Hit]) *)
let outcome memo q p c =
  let _, before = D.memo_stats memo in
  ignore (ask ~memo q p c);
  if snd (D.memo_stats memo) > before then `Miss else `Hit

let arb_keyed =
  QCheck.make
    ~print:(fun (p, c) -> print_pair p ^ " under " ^ print_ctx c)
    G.(pair (gen_pair ~with_n:true ()) gen_ctx)

let prop_key_separates =
  QCheck.Test.make
    ~name:"a query misses when an input of its answer differs, and hits when only an unused \
           binding does"
    ~count:150 arb_keyed (fun (p, c) ->
      let memo = D.create_memo () in
      let expect want q c = outcome memo q p c = want in
      (* N is free in the write: [at v] pins it, [within hi] leaves it to
         its bounds *)
      let at v =
        {
          c with
          env = ("N", v) :: List.remove_assoc "N" c.env;
          valuation = ("N", v) :: List.remove_assoc "N" c.valuation;
        }
      in
      let within hi =
        {
          c with
          env = List.remove_assoc "N" c.env;
          valuation = List.remove_assoc "N" c.valuation;
          bounds = ("N", (Some 1, Some hi)) :: List.remove_assoc "N" c.bounds;
        }
      in
      let n = Option.value ~default:5 (List.assoc_opt "N" c.env) in
      let pinned = at n in
      let overlap =
        expect `Miss Overlap pinned
        && expect `Miss Overlap (at (n + 1))
        && expect `Miss Overlap (within 9)
        && expect `Miss Overlap (within 10)
        && expect `Miss Overlap { pinned with primed = [ ("i", "i''"); ("j", "j''") ] }
        && expect `Hit Overlap { pinned with env = ("K", 3) :: pinned.env }
      in
      let witness q =
        expect `Miss q pinned
        && expect `Miss q (at (n + 1))
        && expect `Miss q (within 9)
        && expect `Miss q (within 10)
        && expect `Miss q { pinned with valuation = pinned.valuation @ [ ("K", 3) ] }
        && expect `Hit q pinned
      in
      let holds q =
        expect `Miss q (within 9)
        && expect `Miss q (within 10)
        && expect `Hit q { (within 10) with bounds = ("K", (Some 0, None)) :: (within 10).bounds }
      in
      overlap && witness Uncovered && witness Difference_witness && holds Equal_sets
      && holds Disjoint_under)

let memo_tests = List.map QCheck_alcotest.to_alcotest [ prop_memo_answers; prop_key_separates ]

let () =
  Alcotest.run "deps"
    [
      ("linsys", linsys_tests);
      ("deps", deps_tests);
      ("memo", memo_tests);
      ("propagate", propagate_tests);
      ("corpus", corpus_tests);
    ]
