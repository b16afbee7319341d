type t = F64 | F32 | I64 | I32 | Bool

let size_bytes = function F64 | I64 -> 8 | F32 | I32 -> 4 | Bool -> 1
let to_string = function F64 -> "f64" | F32 -> "f32" | I64 -> "i64" | I32 -> "i32" | Bool -> "bool"
let pp fmt t = Format.pp_print_string fmt (to_string t)
