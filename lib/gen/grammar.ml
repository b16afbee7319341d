type rule =
  | Elementwise
  | Fuse_chain
  | Nested_map
  | Reduce_tree
  | Wcr_accumulate
  | Copy_chain
  | Device_roundtrip
  | Parallel_kernel
  | For_loop
  | Symbol_loop
  | State_split
  | Risky_read
  | Risky_race
  | Risky_rank

let all =
  [
    Elementwise;
    Fuse_chain;
    Nested_map;
    Reduce_tree;
    Wcr_accumulate;
    Copy_chain;
    Device_roundtrip;
    Parallel_kernel;
    For_loop;
    Symbol_loop;
    State_split;
    Risky_read;
    Risky_race;
    Risky_rank;
  ]

let name = function
  | Elementwise -> "elementwise"
  | Fuse_chain -> "fuse_chain"
  | Nested_map -> "nested_map"
  | Reduce_tree -> "reduce_tree"
  | Wcr_accumulate -> "wcr_accumulate"
  | Copy_chain -> "copy_chain"
  | Device_roundtrip -> "device_roundtrip"
  | Parallel_kernel -> "parallel_kernel"
  | For_loop -> "for_loop"
  | Symbol_loop -> "symbol_loop"
  | State_split -> "state_split"
  | Risky_read -> "risky_read"
  | Risky_race -> "risky_race"
  | Risky_rank -> "risky_rank"


type budget = { min_fragments : int; max_fragments : int }

let default_budget = { min_fragments = 2; max_fragments = 5 }

let budget n =
  if n < 1 then invalid_arg "Grammar.budget: need at least one fragment";
  { min_fragments = min 2 n; max_fragments = n }
