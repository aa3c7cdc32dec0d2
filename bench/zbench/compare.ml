(* `zbench compare A.json... -- B.json...`: judge runs of a change (B)
   against runs of its parent (A), per (metric, workload) pair, by the
   rule of section 8 of the choosing-metrics method:

   - improved: B wins at least nine tenths of the pairs (ties count for
     neither side) and the medians differ by more than A's quartile
     distance;
   - unresolved: the run-to-run spread (quartile distance over the median,
     on either side) is wider than the metric's bound, unless every B run
     is better than every A run;
   - regressed: B's median is worse than A's by more than the bound;
   - no worse: otherwise.

   Per-layer metrics have no bound; they get the improved/worsened test
   only. Runs are paired by seed. Exits 1 when any end-to-end pair
   regressed. *)

type run = { workload : string; seed : int; metrics : (string * float) list }

let runs_of_file path =
  let j = Zobs.Json.parse (Proc.read_file path) in
  let one o =
    let str k = Option.bind (Zobs.Json.member k o) Zobs.Json.to_str in
    let num k = Option.bind (Zobs.Json.member k o) Zobs.Json.to_num in
    match (str "workload", num "seed", Zobs.Json.member "metrics" o) with
    | Some workload, Some seed, Some (Zobs.Json.Obj ms) ->
      {
        workload;
        seed = int_of_float seed;
        metrics =
          List.filter_map
            (fun (n, m) -> Option.map (fun v -> (n, v)) (Option.bind (Zobs.Json.member "value" m) Zobs.Json.to_num))
            ms;
      }
    | _ -> failwith (path ^ ": not a zbench --json run file")
  in
  match j with Zobs.Json.Arr l -> List.map one l | o -> [ one o ]

(* Python's statistics.quantiles(xs, n=4) (the "exclusive" method). *)
let quartiles xs =
  let d = Array.of_list (List.sort compare xs) in
  let n = Array.length d in
  if n = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
      ((d.(j - 1) *. (4.0 -. delta)) +. (d.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

type verdict = Improved | No_worse | Regressed | Unresolved | Worsened | Same

let verdict_name = function
  | Improved -> "improved"
  | No_worse -> "no worse"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"
  | Worsened -> "worsened"
  | Same -> "-"

let judge (m : Spec.metric) a b =
  let better x y = if m.Spec.better = "lower" then x < y else x > y in
  let a1, am, a3 = quartiles (List.map snd a) and b1, bm, b3 = quartiles (List.map snd b) in
  let pairs = List.filter_map (fun (s, x) -> Option.map (fun y -> (x, y)) (List.assoc_opt s b)) a in
  let share won = float_of_int (List.length (List.filter won pairs)) /. float_of_int (max 1 (List.length pairs)) in
  let wins = share (fun (x, y) -> better y x) and losses = share (fun (x, y) -> better x y) in
  let gap = Float.abs (bm -. am) > a3 -. a1 in
  let rel x = if am = 0.0 then 0.0 else x /. Float.abs am in
  let worse_by = rel (if m.Spec.better = "lower" then bm -. am else am -. bm) in
  let spread = Float.max (rel (a3 -. a1)) (if bm = 0.0 then 0.0 else (b3 -. b1) /. Float.abs bm) in
  let all_better = List.for_all (fun (_, y) -> List.for_all (fun (_, x) -> better y x) a) b in
  let v =
    if wins >= 0.9 && gap && better bm am then Improved
    else
      match m.Spec.bound with
      | None -> if losses >= 0.9 && gap then Worsened else Same
      | Some bound ->
        if spread > bound && not all_better then Unresolved
        else if worse_by > bound then Regressed
        else No_worse
  in
  ((a1, am, a3), (b1, bm, b3), wins, List.length pairs, v)

let run (spec : Spec.t) a_files b_files =
  let load fs = List.concat_map runs_of_file fs in
  let a = load a_files and b = load b_files in
  let counts = Hashtbl.create 8 in
  let bump v = Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)) in
  Printf.printf "%-16s %-34s %27s %27s %6s  %s\n" "workload" "metric" "A q1 / median / q3"
    "B q1 / median / q3" "B won" "verdict";
  List.iter
    (fun w ->
      let side runs name =
        List.filter_map
          (fun r -> if r.workload = w then Option.map (fun v -> (r.seed, v)) (List.assoc_opt name r.metrics) else None)
          runs
      in
      List.iter
        (fun (m : Spec.metric) ->
          match (side a m.Spec.name, side b m.Spec.name) with
          | [], _ | _, [] -> ()
          | av, bv ->
            let (a1, am, a3), (b1, bm, b3), wins, n, v = judge m av bv in
            if m.Spec.bound <> None then bump v;
            let q x y z = Printf.sprintf "%.4g / %.4g / %.4g" x y z in
            Printf.printf "%-16s %-34s %27s %27s %5.0f%%  %s (%d pairs)\n" w m.Spec.name (q a1 am a3)
              (q b1 bm b3) (100.0 *. wins) (verdict_name v) n)
        (spec.Spec.end_to_end @ spec.Spec.per_layer))
    spec.Spec.workloads;
  let c v = Option.value ~default:0 (Hashtbl.find_opt counts v) in
  Printf.printf "\nend-to-end pairs: %d improved, %d no worse, %d regressed, %d unresolved\n"
    (c Improved) (c No_worse) (c Regressed) (c Unresolved);
  if c Regressed > 0 then 1 else 0
