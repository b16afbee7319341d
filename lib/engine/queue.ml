type item = {
  id : string;
  program_name : string;
  program : Sdfg.Graph.t;
  xform : Transforms.Xform.t;
  site : Transforms.Xform.site;
  config : Fuzzyflow.Difftest.config;
  static_gate : bool;
  certify_gate : bool;
}

let take n l =
  let rec go i = function [] -> [] | x :: r -> if i >= n then [] else x :: go (i + 1) r in
  go 0 l

let build ?(limit_per = None) ~(config : Fuzzyflow.Difftest.config) ~static_gate ~certify_gate
    programs xforms =
  List.concat_map
    (fun (x : Transforms.Xform.t) ->
      List.concat_map
        (fun (pname, g) ->
          let sites = x.find g in
          let sites = match limit_per with Some n -> take n sites | None -> sites in
          List.map
            (fun site ->
              let id = Fuzzyflow.Campaign.instance_id ~program:pname ~xform:x.name site in
              {
                id;
                program_name = pname;
                program = g;
                xform = x;
                site;
                config =
                  {
                    config with
                    Fuzzyflow.Difftest.seed =
                      Fuzzyflow.Campaign.instance_seed ~global:config.Fuzzyflow.Difftest.seed id;
                  };
                static_gate;
                certify_gate;
              })
            sites)
        programs)
    xforms
