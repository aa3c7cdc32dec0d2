(* BENCHMARK.json: the workloads and metrics this benchmark promises, read
   at run time so the names the code emits cannot drift from the spec
   unnoticed. *)

type metric = { name : string; unit : string; better : string; bound : float option }
type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let load path =
  let j = Zobs.Json.parse (Proc.read_file path) in
  let field k o =
    match Zobs.Json.member k o with Some v -> v | None -> failwith (path ^ ": missing " ^ k)
  in
  let str k o =
    match Zobs.Json.to_str (field k o) with Some s -> s | None -> failwith (path ^ ": " ^ k)
  in
  let arr k o =
    match Zobs.Json.to_arr (field k o) with Some l -> l | None -> failwith (path ^ ": " ^ k)
  in
  let metric o =
    {
      name = str "name" o;
      unit = str "unit" o;
      better = str "better" o;
      bound = Option.bind (Zobs.Json.member "bound" o) Zobs.Json.to_num;
    }
  in
  {
    workloads = List.map (str "name") (arr "workloads" j);
    end_to_end = List.map metric (arr "end_to_end" j);
    per_layer = List.map metric (arr "per_layer" j);
  }

(* Differences between the metrics a run emitted and the ones the spec
   lists for that kind of run; empty when they agree. *)
let drift (listed : metric list) (emitted : (string * (string * float)) list) =
  let missing =
    List.filter_map
      (fun m ->
        match List.assoc_opt m.name emitted with
        | None -> Some (Printf.sprintf "metric %s is listed but not emitted" m.name)
        | Some (u, _) when u <> m.unit ->
          Some (Printf.sprintf "metric %s is emitted in %s, listed in %s" m.name u m.unit)
        | Some _ -> None)
      listed
  in
  let extra =
    List.filter_map
      (fun (n, _) ->
        if List.exists (fun m -> m.name = n) listed then None
        else Some (Printf.sprintf "metric %s is emitted but not listed" n))
      emitted
  in
  missing @ extra

(* Shortest decimal that reads back as the same float: every digit the
   measurement has, none it does not. *)
let number x =
  if not (Float.is_finite x) then invalid_arg "non-finite metric value";
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let metrics_json metrics =
  metrics
  |> List.map (fun (n, (u, v)) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (number v) u)
  |> String.concat ", "

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (metrics_json metrics)
