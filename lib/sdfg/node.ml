type schedule = Sequential | Parallel | Gpu_device

type map_info = {
  label : string;
  params : string list;
  ranges : Symbolic.Subset.range list;
  schedule : schedule;
}

type lib_kind = Mat_mul | Batched_mat_mul | Reduce of Memlet.wcr * int list

type t =
  | Access of string
  | Tasklet of { label : string; code : Tcode.t }
  | Map_entry of map_info
  | Map_exit of { entry : int }
  | Library of { label : string; kind : lib_kind }

let tasklet label code = Tasklet { label; code = Tcode.of_string code }

let label = function
  | Access d -> d
  | Tasklet { label; _ } -> label
  | Map_entry { label; _ } -> label
  | Map_exit { entry } -> Printf.sprintf "exit(%d)" entry
  | Library { label; _ } -> label

let is_map_entry = function Map_entry _ -> true | _ -> false

let schedule_str = function
  | Sequential -> "seq"
  | Parallel -> "par"
  | Gpu_device -> "gpu"

let pp fmt = function
  | Access d -> Format.fprintf fmt "access(%s)" d
  | Tasklet { label; code } -> Format.fprintf fmt "tasklet(%s: %a)" label Tcode.pp code
  | Map_entry { label; params; ranges; schedule } ->
      Format.fprintf fmt "map_entry(%s[%s]: %a, %s)" label (String.concat ", " params)
        Symbolic.Subset.pp ranges (schedule_str schedule)
  | Map_exit { entry } -> Format.fprintf fmt "map_exit(entry=%d)" entry
  | Library { label; kind } ->
      let k =
        match kind with
        | Mat_mul -> "matmul"
        | Batched_mat_mul -> "batched_matmul"
        | Reduce (op, axes) ->
            Printf.sprintf "reduce(%s, [%s])" (Memlet.wcr_to_string op)
              (String.concat "," (List.map string_of_int axes))
      in
      Format.fprintf fmt "library(%s: %s)" label k

let to_string t = Format.asprintf "%a" pp t
