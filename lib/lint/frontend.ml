(* The ZL front-end linter: a flow-sensitive pass over the parsed AST that
   runs *without* building constraints, so it can analyze programs the
   compiler would reject and programs too large to want compiled twice.

   Checks (codes in Diagnostic):
   - ZL001: read of a scalar `var` declared without an initializer before
     any assignment on some path (definite-assignment analysis: a branch
     join keeps the intersection of the branches' assigned sets; a loop
     body's assignments only count when the constant bounds guarantee at
     least one iteration).
   - ZL002: variables/arrays never read, input parameters never read,
     output parameters never assigned.
   - ZL003: declarations (or loop variables) shadowing an existing binding.
   - ZL004: a loop nest whose full unrolling exceeds the configured budget
     (bounds are const-folded; bounds that depend on outer loop variables
     are evaluated at the outer loop's last iteration, a worst case).
   - ZL005: conditionals whose condition const-folds, so the compiled mux
     discards one branch entirely.
   - ZL006: reference to a name that is not in scope. *)

open Zlang.Ast
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type cfg = { unroll_budget : int }

let default_cfg = { unroll_budget = Zlang.Compile.unroll_budget }

type vkind = Kvar | Kinput | Koutput | Kloop

type vinfo = {
  vloc : pos;
  vkind : vkind;
  varray : bool;
  vinit_at_decl : bool; (* had an initializer (or is an array / input) *)
  mutable vread : bool;
  mutable vassigned : bool;
  mutable vuninit_reported : bool;
}

type st = {
  cfg : cfg;
  mutable findings : Diagnostic.t list;
  mutable budget_reported : bool; (* report the outermost offending loop only *)
}

let report st ~code ~severity ~loc fmt =
  Printf.ksprintf
    (fun msg ->
      st.findings <-
        Diagnostic.make ~code ~severity ~location:(Diagnostic.Source loc) "%s" msg :: st.findings)
    fmt

(* Constant folding over the lint value domain: literals, the arithmetic
   and logical operators, and loop variables bound in [env]. Anything else
   is non-constant. Mirrors the compiler's folding closely enough for
   budget estimation and ZL005; >> uses the same floor semantics. *)
let rec const_eval env (e : expr) : int option =
  match e.e with
  | Int n -> Some n
  | Var v -> SMap.find_opt v env
  | Index _ -> None
  | Unop (Neg, a) -> Option.map (fun n -> -n) (const_eval env a)
  | Unop (Not, a) -> Option.map (fun n -> if n = 0 then 1 else 0) (const_eval env a)
  | Binop (op, a, b) -> (
    match (const_eval env a, const_eval env b) with
    | Some x, Some y ->
      let bool b = if b then 1 else 0 in
      (match op with
      | Add -> Some (x + y)
      | Sub -> Some (x - y)
      | Mul -> Some (x * y)
      | Shl -> if y >= 0 && y < 62 then Some (x lsl y) else None
      | Shr ->
        if y >= 0 && y < 62 then
          Some (if x >= 0 then x lsr y else -(((-x) + (1 lsl y) - 1) lsr y))
        else None
      | Lt -> Some (bool (x < y))
      | Le -> Some (bool (x <= y))
      | Gt -> Some (bool (x > y))
      | Ge -> Some (bool (x >= y))
      | Eq -> Some (bool (x = y))
      | Ne -> Some (bool (x <> y))
      | And -> Some (bool (x <> 0 && y <> 0))
      | Or -> Some (bool (x <> 0 || y <> 0)))
    | _ -> None)

(* ---- unroll-budget estimation (ZL004) ---- *)

(* Weight of a statement list under full unrolling: statements count 1
   each, loops multiply by their (worst-case) constant trip count. [cenv]
   maps loop variables to the largest value they take. Weights saturate
   at max_int, so a 2^62-wide nest still reads as past any budget. *)
let ( +| ) a b = if a > max_int - b then max_int else a + b
let ( *| ) a b = if a <> 0 && b > max_int / a then max_int else a * b

let rec unroll_weight st cenv stmts =
  List.fold_left
    (fun acc s ->
      acc
      +|
      match s.s with
      | Decl _ | Assign _ -> 1
      | If (_, tb, eb) -> 1 +| unroll_weight st cenv tb +| unroll_weight st cenv eb
      | For (v, lo, hi, body) ->
        let iters =
          match (const_eval cenv lo, const_eval cenv hi) with
          | Some l, Some h -> max 0 (h - l)
          | _ -> 1 (* non-constant bounds: the compiler rejects these later *)
        in
        let cenv' =
          match const_eval cenv hi with
          | Some h -> SMap.add v (h - 1) cenv
          | None -> cenv
        in
        let w = iters *| (1 +| unroll_weight st cenv' body) in
        if w > st.cfg.unroll_budget && not st.budget_reported then begin
          st.budget_reported <- true;
          report st ~code:"ZL004" ~severity:Diagnostic.Warn ~loc:s.sloc
            "loop nest unrolls to ~%d statements, past the budget of %d" w st.cfg.unroll_budget
        end;
        w)
    0 stmts

(* Names assigned (or redeclared) anywhere in a subtree: used to
   invalidate constant-tracking entries after a conditional or loop, whose
   body runs zero, one or many times. *)
let rec assigned_names acc stmts =
  List.fold_left
    (fun acc s ->
      match s.s with
      | Decl (_, name, _, _) -> SSet.add name acc
      | Assign (Lvar name, _) | Assign (Lindex (name, _), _) -> SSet.add name acc
      | If (_, tb, eb) -> assigned_names (assigned_names acc tb) eb
      | For (v, _, _, body) -> assigned_names (SSet.add v acc) body)
    acc stmts

let invalidate_assigned cenv stmts =
  SSet.fold SMap.remove (assigned_names SSet.empty stmts) cenv

(* ---- scope / definite-assignment walk ---- *)

let use st scope init name loc ~reading =
  match SMap.find_opt name scope with
  | None ->
    report st ~code:"ZL006" ~severity:Diagnostic.Error ~loc "reference to undefined variable %S" name
  | Some vi ->
    if reading then begin
      vi.vread <- true;
      if
        vi.vkind = Kvar && (not vi.varray) && (not vi.vinit_at_decl)
        && (not (SSet.mem name init))
        && not vi.vuninit_reported
      then begin
        vi.vuninit_reported <- true;
        report st ~code:"ZL001" ~severity:Diagnostic.Error ~loc
          "%S may be read before it is assigned (declared without initializer at %s)" name
          (pos_to_string vi.vloc)
      end
    end
    else vi.vassigned <- true

let rec check_expr st scope init (e : expr) =
  match e.e with
  | Int _ -> ()
  | Var name -> use st scope init name e.eloc ~reading:true
  | Index (name, idx) ->
    use st scope init name e.eloc ~reading:true;
    check_expr st scope init idx
  | Unop (_, a) -> check_expr st scope init a
  | Binop (_, a, b) ->
    check_expr st scope init a;
    check_expr st scope init b

(* Returns (scope', init', cenv'): cenv tracks compile-time-constant scalar
   bindings so loop bounds like `for j in 0..i` and ZL005 conditions fold. *)
let rec check_stmt st (scope, init, cenv) (s : stmt) =
  match s.s with
  | Decl (_, name, len, initexpr) ->
    Option.iter (check_expr st scope init) initexpr;
    (match SMap.find_opt name scope with
    | Some prev ->
      report st ~code:"ZL003" ~severity:Diagnostic.Error ~loc:s.sloc
        "declaration of %S shadows the binding from %s" name (pos_to_string prev.vloc)
    | None -> ());
    let varray = len <> None in
    let vinit_at_decl = varray || initexpr <> None in
    let vi =
      {
        vloc = s.sloc;
        vkind = Kvar;
        varray;
        vinit_at_decl;
        vread = false;
        vassigned = initexpr <> None;
        vuninit_reported = false;
      }
    in
    let cenv =
      match (initexpr, varray) with
      | Some e, false -> (
        match const_eval cenv e with Some n -> SMap.add name n cenv | None -> SMap.remove name cenv)
      | _ -> SMap.remove name cenv
    in
    (SMap.add name vi scope, (if vinit_at_decl then SSet.add name init else SSet.remove name init), cenv)
  | Assign (Lvar name, e) ->
    check_expr st scope init e;
    use st scope init name s.sloc ~reading:false;
    let cenv =
      match const_eval cenv e with Some n -> SMap.add name n cenv | None -> SMap.remove name cenv
    in
    (scope, SSet.add name init, cenv)
  | Assign (Lindex (name, idx), e) ->
    check_expr st scope init idx;
    check_expr st scope init e;
    use st scope init name s.sloc ~reading:false;
    (scope, SSet.add name init, cenv)
  | If (cond, then_b, else_b) ->
    check_expr st scope init cond;
    (match const_eval cenv cond with
    | Some v ->
      report st ~code:"ZL005" ~severity:Diagnostic.Info ~loc:s.sloc
        "condition is constant (%s); the %s branch is discarded at compile time"
        (if v = 0 then "false" else "true")
        (if v = 0 then "then" else "else")
    | None -> ());
    let init_t = check_block st (scope, init, cenv) then_b in
    let init_e = check_block st (scope, init, cenv) else_b in
    (* Definitely assigned after the conditional: assigned on both paths
       (or, for a constant condition, on the surviving path). *)
    let init' =
      match const_eval cenv cond with
      | Some 0 -> init_e
      | Some _ -> init_t
      | None -> SSet.union init (SSet.inter init_t init_e)
    in
    (scope, init', invalidate_assigned cenv (then_b @ else_b))
  | For (v, lo, hi, body) ->
    check_expr st scope init lo;
    check_expr st scope init hi;
    (match SMap.find_opt v scope with
    | Some prev ->
      report st ~code:"ZL003" ~severity:Diagnostic.Error ~loc:s.sloc
        "loop variable %S shadows the binding from %s" v (pos_to_string prev.vloc)
    | None -> ());
    ignore (unroll_weight st cenv [ s ]);
    let vi =
      {
        vloc = s.sloc;
        vkind = Kloop;
        varray = false;
        vinit_at_decl = true;
        vread = true; (* `for i in 0..n` without using i is a repeat loop: fine *)
        vassigned = true;
        vuninit_reported = false;
      }
    in
    let scope' = SMap.add v vi scope in
    let cenv' =
      (* The loop variable is constant per unrolled iteration but takes
         many values: treat it as non-constant for ZL005, worst-case for
         budgets (handled inside unroll_weight). *)
      SMap.remove v cenv
    in
    let init_body = check_block st (scope', SSet.add v init, cenv') body in
    let runs_at_least_once =
      match (const_eval cenv lo, const_eval cenv hi) with
      | Some l, Some h -> h > l
      | _ -> false
    in
    (scope, (if runs_at_least_once then SSet.remove v init_body else init), invalidate_assigned cenv body)

(* A block scope: declarations inside disappear at the end (reporting
   unused ones); assignments to outer bindings persist. Returns the
   definitely-assigned set restricted to the outer scope's names. *)
and check_block st (scope, init, cenv) stmts =
  let scope', init', _ =
    List.fold_left (fun acc s -> check_stmt st acc s) (scope, init, cenv) stmts
  in
  SMap.iter
    (fun name vi ->
      if (not (SMap.mem name scope)) && vi.vkind = Kvar && not vi.vread then
        report st ~code:"ZL002" ~severity:Diagnostic.Warn ~loc:vi.vloc
          "%s %S is never read" (if vi.varray then "array" else "variable") name)
    scope';
  SSet.filter (fun n -> SMap.mem n scope) init'

let check_program cfg (prog : program) : Diagnostic.t list =
  let st = { cfg; findings = []; budget_reported = false } in
  let scope =
    List.fold_left
      (fun scope p ->
        (match SMap.find_opt p.pname scope with
        | Some prev ->
          report st ~code:"ZL003" ~severity:Diagnostic.Error ~loc:p.ploc
            "duplicate parameter %S (first declared at %s)" p.pname (pos_to_string prev.vloc)
        | None -> ());
        let vi =
          {
            vloc = p.ploc;
            vkind = (if p.pdir = Input then Kinput else Koutput);
            varray = p.plen <> None;
            vinit_at_decl = true;
            vread = false;
            vassigned = false;
            vuninit_reported = false;
          }
        in
        SMap.add p.pname vi scope)
      SMap.empty prog.params
  in
  ignore (check_block st (scope, SSet.empty, SMap.empty) prog.body);
  (* check_block only reports block-local `var`s; parameters are ours. *)
  SMap.iter
    (fun name vi ->
      match vi.vkind with
      | Kinput ->
        if not vi.vread then
          report st ~code:"ZL002" ~severity:Diagnostic.Warn ~loc:vi.vloc
            "input parameter %S is never read" name
      | Koutput ->
        if not vi.vassigned then
          report st ~code:"ZL002" ~severity:Diagnostic.Warn ~loc:vi.vloc
            "output parameter %S is never assigned (it stays 0)" name
      | _ -> ())
    scope;
  List.rev st.findings

(* Parse-and-check: a source that fails to parse yields one ZL000 finding
   carrying the parser's positioned message. *)
let check_source ?(cfg = default_cfg) (src : string) : Diagnostic.t list =
  match Zlang.Parser.parse_program src with
  | prog -> check_program cfg prog
  | exception Zlang.Ast.Error msg ->
    [ Diagnostic.make ~code:"ZL000" ~severity:Diagnostic.Error "%s" msg ]
