type ('k, 'v) t = {
  capacity : int;
  tbl : ('k, 'v) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 64) () =
  { capacity = max 1 capacity; tbl = Hashtbl.create 16; hits = 0; misses = 0 }

let find_or_add m key f =
  match Hashtbl.find_opt m.tbl key with
  | Some r ->
      m.hits <- m.hits + 1;
      r
  | None ->
      m.misses <- m.misses + 1;
      let r = f () in
      if Hashtbl.length m.tbl >= m.capacity then Hashtbl.reset m.tbl;
      Hashtbl.add m.tbl key r;
      r

let stats m = (m.hits, m.misses)
