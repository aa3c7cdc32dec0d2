(* The bench's regression gates as data (DESIGN.md §10). A row names a
   path into the BENCH_run.json summary and the check the values there
   get; [check] evaluates one gate's rows over a run and, for --baseline,
   the committed baseline it is diffed against. Every check compares
   deterministic facts (counts, bytes, words, flags); wall clock is never
   gated here. Pure: no I/O, no exits. *)

module J = Zobs.Json

type gate =
  | Ledger  (* --check-ledger *)
  | Baseline  (* --baseline FILE *)

type kind =
  | Exact  (* equal to the baseline's value *)
  | Ceiling of float  (* at most this in the run *)
  | Implies of string * string  (* an object whose field [a] is true has [b] true *)

type row = { gate : gate; kind : kind; path : string list }

(* [rows gate kind ["a.*.b"; ...]]: paths split on '.'. A "*" segment
   ranges over an object's keys or an array's elements; an element is
   named by its "name" field (its index when it has none), so a run and
   its baseline join arrays by name. *)
let rows gate kind paths =
  List.map (fun p -> { gate; kind; path = String.split_on_char '.' p }) paths

let label i = function
  | J.Obj kvs -> (
    match List.assoc_opt "name" kvs with Some (J.Str n) -> n | _ -> string_of_int i)
  | _ -> string_of_int i

(* Every concrete path [path] reaches in [j], with its value. *)
let rec expand path j =
  let under k rest v = List.map (fun (p, x) -> (k :: p, x)) (expand rest v) in
  match (path, j) with
  | [], _ -> [ ([], j) ]
  | "*" :: rest, J.Obj kvs -> List.concat_map (fun (k, v) -> under k rest v) kvs
  | "*" :: rest, J.Arr xs -> List.concat (List.mapi (fun i x -> under (label i x) rest x) xs)
  | k :: rest, J.Obj kvs -> (
    match List.assoc_opt k kvs with Some v -> under k rest v | None -> [])
  | _ -> []

let show = function J.Num x -> Printf.sprintf "%g" x | v -> J.to_string v

(* Why [v] fails its row, if it does; [base] is the baseline's value at
   the same path. *)
let breach kind ~base v =
  let fail fmt = Printf.ksprintf Option.some fmt in
  match (kind, v, base) with
  | Exact, _, Some b -> if b = v then None else fail "%s here, %s in baseline" (show v) (show b)
  | Exact, _, None -> fail "no baseline to compare with"
  | Ceiling m, J.Num c, _ -> if c > m || Float.is_nan c then fail "%g over the ceiling %g" c m else None
  | Ceiling _, _, _ -> fail "%s is not a number" (show v)
  | Implies (a, b), _, _ ->
    if J.member a v = Some (J.Bool true) && J.member b v <> Some (J.Bool true) then
      fail "%s but not %s: %s" a b (J.to_string v)
    else None

(* Evaluate [gate]'s rows of [rows] over [run]. With a [baseline], every
   row's key set is compared both ways: a path either side lacks is a
   named failure. A row that reaches nothing fails too. Returns the number
   of values checked and the failures, each "path: why". *)
let check ?baseline gate rows run =
  let name p = String.concat "." p in
  List.fold_left
    (fun (n, fails) row ->
      let here = expand row.path run in
      let there = match baseline with Some b -> expand row.path b | None -> [] in
      let missing side l other =
        List.filter_map
          (fun (p, _) ->
            if List.mem_assoc p other then None else Some (name p ^ ": missing from " ^ side))
          l
      in
      let row_fails =
        if here = [] && there = [] then [ name row.path ^ ": no value in this run" ]
        else
          let two_way = baseline <> None in
          (if two_way then missing "the baseline" here there @ missing "this run" there here
           else [])
          @ List.filter_map
              (fun (p, v) ->
                let base = List.assoc_opt p there in
                if two_way && base = None then None
                else Option.map (( ^ ) (name p ^ ": ")) (breach row.kind ~base v))
              here
      in
      (n + List.length here, fails @ row_fails))
    (0, [])
    (List.filter (fun r -> r.gate = gate) rows)
