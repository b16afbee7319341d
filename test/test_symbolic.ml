(* Unit and property tests for the symbolic expression layer. *)

open Symbolic

let env = Expr.Env.of_list [ ("N", 10); ("M", 4); ("i", 3) ]

let check_eval name expected e =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check int) name expected (Expr.eval env e))

let expr_tests =
  [
    check_eval "const" 7 (Expr.int 7);
    check_eval "sym" 10 (Expr.sym "N");
    check_eval "add" 14 Expr.(add (sym "N") (sym "M"));
    check_eval "sub" 6 Expr.(sub (sym "N") (sym "M"));
    check_eval "mul" 40 Expr.(mul (sym "N") (sym "M"));
    check_eval "div floor" 2 Expr.(div (sym "N") (int 4));
    check_eval "div negative floors down" (-3) Expr.(div (int (-10)) (int 4));
    check_eval "mod" 2 Expr.(modulo (sym "N") (int 4));
    check_eval "mod negative stays non-negative" 2 Expr.(modulo (int (-10)) (int 4));
    check_eval "min" 4 Expr.(min_ (sym "N") (sym "M"));
    check_eval "max" 10 Expr.(max_ (sym "N") (sym "M"));
    check_eval "neg" (-10) Expr.(neg (sym "N"));
    check_eval "nested" 33 Expr.(add (mul (sym "i") (sym "N")) (int 3));
    Alcotest.test_case "unbound symbol raises" `Quick (fun () ->
        Alcotest.check_raises "unbound" (Expr.Unbound_symbol "Q") (fun () ->
            ignore (Expr.eval env (Expr.sym "Q"))));
    Alcotest.test_case "division by zero raises" `Quick (fun () ->
        Alcotest.check_raises "divzero" Expr.Division_by_zero (fun () ->
            ignore (Expr.eval env Expr.(div (sym "N") (int 0)))));
  ]

let simplify_tests =
  let eq name a b =
    Alcotest.test_case name `Quick (fun () ->
        Alcotest.(check bool) name true (Expr.equal a b))
  in
  [
    eq "x+0 = x" Expr.(add (sym "x") (int 0)) (Expr.sym "x");
    eq "0+x = x" Expr.(add (int 0) (sym "x")) (Expr.sym "x");
    eq "x*1 = x" Expr.(mul (sym "x") (int 1)) (Expr.sym "x");
    eq "x*0 = 0" Expr.(mul (sym "x") (int 0)) (Expr.int 0);
    eq "x-x = 0" Expr.(sub (sym "x") (sym "x")) (Expr.int 0);
    eq "x/1 = x" Expr.(div (sym "x") (int 1)) (Expr.sym "x");
    eq "x%1 = 0" Expr.(modulo (sym "x") (int 1)) (Expr.int 0);
    eq "min(x,x) = x" Expr.(min_ (sym "x") (sym "x")) (Expr.sym "x");
    eq "--x = x" Expr.(neg (neg (sym "x"))) (Expr.sym "x");
    eq "const folding" Expr.(add (int 2) (mul (int 3) (int 4))) (Expr.int 14);
    Alcotest.test_case "is_constant" `Quick (fun () ->
        Alcotest.(check (option int)) "const" (Some 14)
          (Expr.is_constant Expr.(add (int 2) (mul (int 3) (int 4))));
        Alcotest.(check (option int)) "sym" None (Expr.is_constant (Expr.sym "x")));
  ]

let parse_tests =
  let roundtrip name s expected =
    Alcotest.test_case name `Quick (fun () ->
        Alcotest.(check int) name expected (Expr.eval env (Expr.of_string s)))
  in
  [
    roundtrip "number" "42" 42;
    roundtrip "sym" "N" 10;
    roundtrip "precedence" "2 + 3 * N" 32;
    roundtrip "parens" "(2 + 3) * N" 50;
    roundtrip "sub chain left assoc" "N - 1 - 2" 7;
    roundtrip "div" "N / 3" 3;
    roundtrip "mod" "N % 3" 1;
    roundtrip "min fn" "min(N, M)" 4;
    roundtrip "max fn" "max(N, M + 20)" 24;
    roundtrip "unary minus" "-N + 12" 2;
    roundtrip "nested fn" "min(max(N, M), 7)" 7;
    Alcotest.test_case "parse error" `Quick (fun () ->
        match Expr.of_string "N +" with
        | exception Expr.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    Alcotest.test_case "free syms sorted unique" `Quick (fun () ->
        Alcotest.(check (list string)) "syms" [ "M"; "N" ]
          (Expr.free_syms (Expr.of_string "N * M + N - M")));
    Alcotest.test_case "subst" `Quick (fun () ->
        let e = Expr.subst (Expr.Env.singleton "N" (Expr.int 5)) (Expr.of_string "N * N") in
        Alcotest.(check int) "subst" 25 (Expr.eval Expr.Env.empty e));
    Alcotest.test_case "rename" `Quick (fun () ->
        let e = Expr.rename_sym ~from:"N" ~into:"M" (Expr.of_string "N + M") in
        Alcotest.(check int) "renamed" 8 (Expr.eval env e));
  ]

let cond_tests =
  let ev name expected s =
    Alcotest.test_case name `Quick (fun () ->
        Alcotest.(check bool) name expected (Cond.eval env (Cond.of_string s)))
  in
  [
    ev "lt true" true "M < N";
    ev "lt false" false "N < M";
    ev "le eq" true "N <= 10";
    ev "gt" true "N > 9";
    ev "ge" true "N >= 10";
    ev "eq" true "N == 10";
    ev "ne" true "N != M";
    ev "and" true "M < N and N <= 10";
    ev "or" true "N < M or M == 4";
    ev "not" true "not (N < M)";
    ev "parens" true "(N < M or M == 4) and N == 10";
    ev "arith inside" true "N * M >= 39";
    Alcotest.test_case "negate inverts" `Quick (fun () ->
        let c = Cond.of_string "i <= N - 1" in
        Alcotest.(check bool) "neg" (not (Cond.eval env c)) (Cond.eval env (Cond.negate c)));
    Alcotest.test_case "free syms" `Quick (fun () ->
        Alcotest.(check (list string)) "syms" [ "M"; "N" ] (Cond.free_syms (Cond.of_string "N < M")));
  ]

let subset_tests =
  let conc s = Subset.concretize env (Subset.of_string s) in
  [
    Alcotest.test_case "volume full" `Quick (fun () ->
        Alcotest.(check int) "N*N" 100 (Subset.volume_eval env (Subset.of_string "0:N-1, 0:N-1")));
    Alcotest.test_case "volume strided" `Quick (fun () ->
        Alcotest.(check int) "strided" 5 (Subset.volume_eval env (Subset.of_string "0:N-2:2")));
    Alcotest.test_case "volume index" `Quick (fun () ->
        Alcotest.(check int) "idx" 1 (Subset.volume_eval env (Subset.of_string "i")));
    Alcotest.test_case "volume scalar" `Quick (fun () ->
        Alcotest.(check int) "scalar" 1 (Subset.volume_eval env Subset.scalar));
    Alcotest.test_case "negative step count" `Quick (fun () ->
        let r = Subset.concretize_range env (Subset.dim ~step:(Expr.int (-1)) (Expr.int 4) (Expr.int 1)) in
        Alcotest.(check int) "count" 4 (Subset.crange_count r);
        Alcotest.(check (list int)) "elements" [ 4; 3; 2; 1 ] (Subset.crange_elements r));
    Alcotest.test_case "empty range" `Quick (fun () ->
        let r = Subset.concretize_range env (Subset.dim (Expr.int 5) (Expr.int 2)) in
        Alcotest.(check int) "count" 0 (Subset.crange_count r));
    Alcotest.test_case "overlap basic" `Quick (fun () ->
        Alcotest.(check bool) "yes" true (Subset.overlaps (conc "0:5") (conc "3:9"));
        Alcotest.(check bool) "no" false (Subset.overlaps (conc "0:2") (conc "3:9")));
    Alcotest.test_case "overlap multi-dim" `Quick (fun () ->
        Alcotest.(check bool) "disjoint row" false
          (Subset.overlaps (conc "0, 0:9") (conc "1, 0:9"));
        Alcotest.(check bool) "same cell" true (Subset.overlaps (conc "1, 2") (conc "1, 2")));
    Alcotest.test_case "covers" `Quick (fun () ->
        Alcotest.(check bool) "yes" true (Subset.covers (conc "0:9") (conc "2:5"));
        Alcotest.(check bool) "no" false (Subset.covers (conc "2:5") (conc "0:9")));
    Alcotest.test_case "full" `Quick (fun () ->
        Alcotest.(check int) "vol" 40
          (Subset.volume_eval env (Subset.full [ Expr.sym "N"; Expr.sym "M" ])));
    Alcotest.test_case "parse index vs range vs stride" `Quick (fun () ->
        Alcotest.(check int) "3 dims" 3 (Subset.num_dims (Subset.of_string "i, 0:N-1, 0:N-1:2")));
    Alcotest.test_case "subst and rename" `Quick (fun () ->
        let s = Subset.rename_sym ~from:"i" ~into:"j" (Subset.of_string "i:i+2") in
        let env' = Expr.Env.of_list [ ("j", 5) ] in
        Alcotest.(check int) "vol" 3 (Subset.volume_eval env' s));
  ]

(* Edge cases of the concrete and symbolic subset predicates: negative-step
   ranges iterate downwards ([hi] is their smallest element) and empty ranges
   cover nothing, so must neither overlap nor witness disjointness. *)
let subset_edge_tests =
  let down = { Subset.clo = 7; chi = 1; cstep = -2 } (* {7,5,3,1} *)
  and mid = { Subset.clo = 3; chi = 5; cstep = 1 }
  and empty = { Subset.clo = 0; chi = -1; cstep = 1 } in
  let sdown = [ Subset.dim ~step:(Expr.int (-2)) (Expr.int 7) (Expr.int 1) ]
  and smid = [ Subset.dim (Expr.int 3) (Expr.int 5) ]
  and shigh = [ Subset.dim (Expr.int 8) (Expr.int 9) ] in
  [
    Alcotest.test_case "negative-step range overlaps its span" `Quick (fun () ->
        Alcotest.(check bool) "7:1:-2 meets 3:5" true (Subset.overlaps [ down ] [ mid ]);
        Alcotest.(check bool) "symmetric" true (Subset.overlaps [ mid ] [ down ]));
    Alcotest.test_case "empty range overlaps nothing" `Quick (fun () ->
        Alcotest.(check bool) "empty vs mid" false (Subset.overlaps [ empty ] [ mid ]);
        Alcotest.(check bool) "empty vs itself" false (Subset.overlaps [ empty ] [ empty ]));
    Alcotest.test_case "covers across directions" `Quick (fun () ->
        Alcotest.(check bool) "1:7 covers the downward range" true
          (Subset.covers [ { Subset.clo = 1; chi = 7; cstep = 1 } ] [ down ]);
        Alcotest.(check bool) "downward stride-2 covers nothing" false
          (Subset.covers [ down ] [ mid ]);
        Alcotest.(check bool) "unit downward range covers" true
          (Subset.covers [ { Subset.clo = 7; chi = 1; cstep = -1 } ] [ mid ]));
    Alcotest.test_case "definitely_disjoint respects negative steps" `Quick (fun () ->
        (* hi(=1) < lo(=3) of the other range, but the downward range still
           covers {7,5,3,1}: a sound analysis must NOT claim disjointness *)
        Alcotest.(check bool) "7:1:-2 vs 3:5" false (Subset.definitely_disjoint sdown smid);
        Alcotest.(check bool) "7:1:-2 vs 8:9 is disjoint" true
          (Subset.definitely_disjoint sdown shigh);
        Alcotest.(check bool) "symmetric" true (Subset.definitely_disjoint shigh sdown));
    Alcotest.test_case "normalize mirrors constant downward ranges" `Quick (fun () ->
        let n = Subset.normalize sdown in
        Alcotest.(check bool) "equal to 1:7:2" true
          (Subset.equal n [ Subset.dim ~step:(Expr.int 2) (Expr.int 1) (Expr.int 7) ]));
    Alcotest.test_case "union is the larger range" `Quick (fun () ->
        let a = [ Subset.dim (Expr.int 0) (Expr.sub (Expr.sym "N") (Expr.int 1)) ]
        and b = [ Subset.dim (Expr.int 0) (Expr.sub (Expr.sym "N") (Expr.int 2)) ] in
        Alcotest.(check bool) "union is the larger range" true (Subset.equal (Subset.union a b) a));
  ]

(* properties *)
let gen_expr =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then oneof [ map Expr.int (int_range (-20) 20); oneofl [ Expr.sym "N"; Expr.sym "M" ] ]
      else
        let sub = self (n / 2) in
        oneof
          [
            map Expr.int (int_range (-20) 20);
            oneofl [ Expr.sym "N"; Expr.sym "M" ];
            map2 Expr.add sub sub;
            map2 Expr.sub sub sub;
            map2 Expr.mul sub sub;
            map2 Expr.min_ sub sub;
            map2 Expr.max_ sub sub;
            map Expr.neg sub;
          ])

let arb_expr = QCheck.make ~print:Expr.to_string gen_expr

let prop_simplify_preserves_eval =
  QCheck.Test.make ~name:"simplify preserves evaluation" ~count:500 arb_expr (fun e ->
      Expr.eval env (Expr.simplify e) = Expr.eval env e)

let prop_parse_print_roundtrip =
  QCheck.Test.make ~name:"print/parse round-trip preserves evaluation" ~count:500 arb_expr
    (fun e -> Expr.eval env (Expr.of_string (Expr.to_string e)) = Expr.eval env e)

let prop_subst_commutes =
  QCheck.Test.make ~name:"substituting a constant equals binding it" ~count:300 arb_expr
    (fun e ->
      let bound = Expr.Env.add "N" 7 (Expr.Env.remove "N" env) in
      let substituted = Expr.subst (Expr.Env.singleton "N" (Expr.int 7)) e in
      Expr.eval bound e = Expr.eval bound substituted)

let gen_crange =
  QCheck.Gen.(
    map3
      (fun lo len step -> { Subset.clo = lo; chi = lo + len; cstep = 1 + step })
      (int_range (-10) 10) (int_range 0 20) (int_range 0 3))

let arb_crange = QCheck.make gen_crange

let prop_overlap_symmetric =
  QCheck.Test.make ~name:"overlap is symmetric" ~count:500 (QCheck.pair arb_crange arb_crange)
    (fun (a, b) -> Subset.overlaps [ a ] [ b ] = Subset.overlaps [ b ] [ a ])

let prop_overlap_reflexive =
  QCheck.Test.make ~name:"nonempty ranges overlap themselves" ~count:500 arb_crange (fun r ->
      QCheck.assume (Subset.crange_count r > 0);
      Subset.overlaps [ r ] [ r ])

let prop_count_matches_elements =
  QCheck.Test.make ~name:"crange_count = |crange_elements|" ~count:500 arb_crange (fun r ->
      Subset.crange_count r = List.length (Subset.crange_elements r))

let () =
  Alcotest.run "symbolic"
    [
      ("expr", expr_tests);
      ("simplify", simplify_tests);
      ("parse", parse_tests);
      ("cond", cond_tests);
      ("subset", subset_tests);
      ("subset-edge", subset_edge_tests);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_simplify_preserves_eval;
            prop_parse_print_roundtrip;
            prop_subst_commutes;
            prop_overlap_symmetric;
            prop_overlap_reflexive;
            prop_count_matches_elements;
          ] );
    ]
