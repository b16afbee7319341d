open Sdfg

(* Splitmix64: tiny, high-quality, reproducible. *)
type rng = { mutable state : int64 }

let create seed = { state = Int64.of_int (seed lxor 0x1234567) }

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split r = { state = next r }

let int_in r lo hi =
  if hi <= lo then lo
  else
    let span = hi - lo + 1 in
    let x = Int64.to_int (Int64.shift_right_logical (next r) 2) in
    lo + (x mod span)

let float_in r lo hi =
  let x = Int64.to_float (Int64.shift_right_logical (next r) 11) /. 9007199254740992.0 in
  lo +. (x *. (hi -. lo))

let bool r = Int64.to_int (Int64.logand (next r) 1L) = 1

let sample_symbols r (c : Constraints.t) =
  List.fold_left
    (fun acc (sym, sc) ->
      let v =
        match sc with
        | Constraints.Size n -> int_in r 1 n
        | Constraints.Free n -> int_in r (-n) n
        | Constraints.Bounded (lo, hi) -> (
            let env = Symbolic.Expr.Env.of_list acc in
            match (Symbolic.Expr.eval env lo, Symbolic.Expr.eval env hi) with
            | lo', hi' -> int_in r (min lo' hi') (max lo' hi')
            | exception (Symbolic.Expr.Unbound_symbol _ | Symbolic.Expr.Division_by_zero) ->
                int_in r 0 8)
      in
      acc @ [ (sym, v) ])
    [] c.sym_order

let fill_array r (c : Constraints.t) (dtype : Dtype.t) n =
  let lo, hi = c.value_range in
  Array.init n (fun _ ->
      match dtype with
      | Dtype.F64 | Dtype.F32 -> Interp.Value.cast dtype (float_in r lo hi)
      | Dtype.I64 | Dtype.I32 ->
          Interp.Value.cast dtype (float_of_int (int_in r (int_of_float lo) (int_of_float hi)))
      | Dtype.Bool -> if bool r then 1. else 0.)

let container_size g env c =
  match Graph.container_opt g c with
  | None -> 0
  | Some d -> Graph.elements env d.shape

let sample_inputs r (c : Constraints.t) (cut : Cutout.t) ~symbols =
  let env = Symbolic.Expr.Env.of_list symbols in
  List.map
    (fun name ->
      let dtype =
        match Graph.container_opt cut.program name with
        | Some d -> d.dtype
        | None -> Dtype.F64
      in
      let n = max 1 (container_size cut.program env name) in
      (name, fill_array r c dtype n))
    cut.input_config

let trial rng c cut =
  let r = split rng in
  let symbols = sample_symbols r c in
  (symbols, sample_inputs r c cut ~symbols)

let mutate r (c : Constraints.t) (cut : Cutout.t) (syms, inputs) =
  ignore cut;
  let mutate_sym (name, v) =
    match List.assoc_opt name c.sym_order with
    | Some (Constraints.Size n) ->
        if int_in r 0 3 = 0 then (name, max 1 (min n (v + int_in r (-2) 2))) else (name, v)
    | Some (Constraints.Free n) ->
        if int_in r 0 3 = 0 then (name, max (-n) (min n (v + int_in r (-2) 2))) else (name, v)
    | Some (Constraints.Bounded _) | None ->
        if int_in r 0 3 = 0 then (name, max 0 (v + int_in r (-1) 1)) else (name, v)
  in
  let syms' = List.map mutate_sym syms in
  if syms' <> syms then
    (* shapes may have changed: resample arrays under the new sizes *)
    (syms', sample_inputs r c cut ~symbols:syms')
  else
    let lo, hi = c.value_range in
    let inputs' =
      List.map
        (fun (name, arr) ->
          let arr = Array.copy arr in
          let n = Array.length arr in
          let k = 1 + int_in r 0 (min 7 (n - 1)) in
          for _ = 1 to k do
            let i = int_in r 0 (n - 1) in
            arr.(i) <-
              (match int_in r 0 4 with
              | 0 -> 0.
              | 1 -> arr.(i) *. -1.
              | 2 -> arr.(i) *. 2.
              | 3 -> float_in r lo hi
              | _ -> arr.(i) +. 1.)
          done;
          (name, arr))
        inputs
    in
    (syms, inputs')
