type t = Finite of int | Inf

let zero = Finite 0

let finite n =
  if n < 0 then invalid_arg "Cap.finite: negative capacity";
  Finite n

let add a b =
  match (a, b) with
  | Inf, _ | _, Inf -> Inf
  | Finite x, Finite y -> Finite (x + y)

let sub a b =
  match (a, b) with
  | Inf, Finite _ -> Inf
  | Finite x, Finite y ->
      if y > x then invalid_arg "Cap.sub: negative result";
      Finite (x - y)
  | _, Inf -> invalid_arg "Cap.sub: subtracting Inf"

let min a b =
  match (a, b) with
  | Inf, x | x, Inf -> x
  | Finite x, Finite y -> Finite (Stdlib.min x y)

let compare a b =
  match (a, b) with
  | Inf, Inf -> 0
  | Inf, Finite _ -> 1
  | Finite _, Inf -> -1
  | Finite x, Finite y -> Stdlib.compare x y

let to_string = function Finite n -> string_of_int n | Inf -> "inf"
let pp fmt t = Format.pp_print_string fmt (to_string t)
