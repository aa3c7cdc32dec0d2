(* The flattening pass: symbolic execution of the ZL AST against the
   constraint builder (the paper's compiler "turns a program into a list of
   assignment statements, then produces a constraint or pseudoconstraint for
   each statement", §2.2).

   - loops unroll (bounds are compile-time constants);
   - conditionals on non-constant booleans execute both branches and merge
     every differing binding through a mux gadget;
   - conditionals on constants select a branch statically;
   - array indexing uses direct access for constant indices and the one-hot
     gadget otherwise. *)

open Fieldlib
open Constr
module SMap = Map.Make (String)

type binding = Scalar of Builder.value | Arr of Builder.value array

type compiled = {
  name : string;
  ctx : Fp.ctx;
  ginger : Quad.system;
  transform : Transform.t;
  num_inputs : int;
  num_outputs : int;
  solve_ginger : Fp.el array -> Fp.el array; (* inputs -> canonical Ginger assignment *)
  solve_zaatar : Fp.el array -> Fp.el array; (* inputs -> canonical Zaatar assignment *)
}

let zaatar_r1cs c = c.transform.Transform.r1cs

let lookup ?(loc = Ast.no_pos) env name =
  match SMap.find_opt name env with
  | Some b -> b
  | None -> Ast.error_at loc "undefined variable %S" name

let rec eval_expr b env (e : Ast.expr) : Builder.value =
  let loc = e.Ast.eloc in
  match e.Ast.e with
  | Ast.Int n -> Builder.const b n
  | Ast.Var name -> (
    match lookup ~loc env name with
    | Scalar v -> v
    | Arr _ -> Ast.error_at loc "array %S used as a scalar" name)
  | Ast.Index (name, idx) -> (
    match lookup ~loc env name with
    | Scalar _ -> Ast.error_at loc "scalar %S indexed as an array" name
    | Arr elems -> (
      let iv = eval_expr b env idx in
      match Builder.as_const_int b iv with
      | Some i ->
        if i < 0 || i >= Array.length elems then
          Ast.error_at loc "index %d out of bounds for %S (length %d)" i name (Array.length elems);
        elems.(i)
      | None -> fst (Builder.dyn_read b iv elems)))
  | Ast.Unop (Ast.Neg, e) -> Builder.neg b (eval_expr b env e)
  | Ast.Unop (Ast.Not, e) ->
    let v = eval_expr b env e in
    Builder.require_bool "!" v;
    Builder.bool_not b v
  | Ast.Binop (op, e1, e2) -> (
    let v1 = eval_expr b env e1 in
    let v2 = eval_expr b env e2 in
    match op with
    | Ast.Add -> Builder.add b v1 v2
    | Ast.Sub -> Builder.sub b v1 v2
    | Ast.Mul -> Builder.mul b v1 v2
    | Ast.Shr -> (
      match Builder.as_const_int b v2 with
      | Some k -> Builder.shr b v1 k
      | None -> Ast.error_at loc ">> requires a compile-time constant shift amount")
    | Ast.Shl -> (
      match Builder.as_const_int b v2 with
      | Some k -> Builder.shl b v1 k
      | None -> Ast.error_at loc "<< requires a compile-time constant shift amount")
    | Ast.Lt -> Builder.lt b v1 v2
    | Ast.Le -> Builder.le b v1 v2
    | Ast.Gt -> Builder.gt b v1 v2
    | Ast.Ge -> Builder.ge b v1 v2
    | Ast.Eq -> Builder.eq b v1 v2
    | Ast.Ne -> Builder.ne b v1 v2
    | Ast.And -> Builder.band b v1 v2
    | Ast.Or -> Builder.bor b v1 v2)

let const_int_expr b env (e : Ast.expr) what =
  match Builder.as_const_int b (eval_expr b env e) with
  | Some n -> n
  | None -> Ast.error_at e.Ast.eloc "%s must be a compile-time constant" what

(* Merge two post-branch environments under a boolean condition. Both must
   have the same domain as the pre-branch environment. *)
let merge_envs ~loc b cond base env_t env_e =
  SMap.mapi
    (fun name _ ->
      let bt = SMap.find name env_t and be = SMap.find name env_e in
      match (bt, be) with
      | Scalar vt, Scalar ve ->
        if Quad.qpoly_equal vt.Builder.qp ve.Builder.qp then bt
        else Scalar (Builder.mux b cond vt ve)
      | Arr at, Arr ae ->
        if Array.length at <> Array.length ae then
          Ast.error_at loc "array %S changed length across branches" name;
        Arr
          (Array.init (Array.length at) (fun i ->
               if Quad.qpoly_equal at.(i).Builder.qp ae.(i).Builder.qp then at.(i)
               else Builder.mux b cond at.(i) ae.(i)))
      | _ -> Ast.error_at loc "binding %S changed shape across branches" name)
    base

(* The most loop iterations one nest may unroll to: a product of trip
   counts past this is rejected at the loop that crosses it, before any of
   it is unrolled. Zlint's ZL004 warns against the same figure. *)
let unroll_budget = 1_000_000

(* [outer] is the product of the enclosing loops' trip counts. *)
let rec exec_stmt b outer env (s : Ast.stmt) : binding SMap.t =
  let loc = s.Ast.sloc in
  match s.Ast.s with
  | Ast.Decl (t, name, len, init) ->
    if SMap.mem name env then Ast.error_at loc "shadowing declaration of %S" name;
    let width = t.Ast.bits - 1 in
    let bind =
      match (len, init) with
      | None, None -> Scalar (Builder.const b 0)
      | None, Some e ->
        (* The inferred magnitude bound is kept; the declared type only
           caps fresh inputs. *)
        ignore width;
        Scalar (eval_expr b env e)
      | Some n, None -> Arr (Array.make n (Builder.const b 0))
      | Some _, Some _ -> Ast.error_at loc "array declarations cannot have initializers"
    in
    SMap.add name bind env
  | Ast.Assign (Ast.Lvar name, e) -> (
    let v = eval_expr b env e in
    match lookup ~loc env name with
    | Scalar _ -> SMap.add name (Scalar v) env
    | Arr _ -> Ast.error_at loc "cannot assign a scalar to array %S" name)
  | Ast.Assign (Ast.Lindex (name, idx), e) -> (
    let v = eval_expr b env e in
    match lookup ~loc env name with
    | Scalar _ -> Ast.error_at loc "cannot index scalar %S" name
    | Arr elems -> (
      let iv = eval_expr b env idx in
      match Builder.as_const_int b iv with
      | Some i ->
        if i < 0 || i >= Array.length elems then
          Ast.error_at loc "index %d out of bounds for %S (length %d)" i name (Array.length elems);
        let elems' = Array.copy elems in
        elems'.(i) <- v;
        SMap.add name (Arr elems') env
      | None -> SMap.add name (Arr (Builder.dyn_write b iv elems v)) env))
  | Ast.If (cond, then_b, else_b) -> (
    let cv = eval_expr b env cond in
    Builder.require_bool "if condition" cv;
    match Builder.as_const_int b cv with
    | Some 0 -> exec_block b outer env else_b
    | Some _ -> exec_block b outer env then_b
    | None ->
      let env_t = exec_block b outer env then_b in
      let env_e = exec_block b outer env else_b in
      merge_envs ~loc b cv env env_t env_e)
  | Ast.For (v, lo, hi, body) ->
    let lo = const_int_expr b env lo "loop bound" in
    let hi = const_int_expr b env hi "loop bound" in
    if SMap.mem v env then Ast.error_at loc "loop variable %S shadows an existing binding" v;
    let width = if hi > lo then hi - lo else 0 in
    (* By division: outer <= budget, but width may be near max_int (and
       negative if hi - lo overflowed). *)
    if width < 0 || (width > 0 && outer > unroll_budget / width) then
      Ast.error_at loc "loop nest unrolls past the unroll budget of %d iterations" unroll_budget;
    let env = ref env in
    if width > 0 then
      for i = lo to hi - 1 do
        let inner = SMap.add v (Scalar (Builder.const b i)) !env in
        let after = exec_stmts b (outer * width) inner body in
        (* Drop the loop variable and any body-local declarations. *)
        env := SMap.filter (fun name _ -> SMap.mem name !env) after
      done;
    !env

and exec_stmts b outer env stmts = List.fold_left (exec_stmt b outer) env stmts

(* Block scoping: declarations inside the block disappear; updates to outer
   bindings persist. *)
and exec_block b outer env stmts =
  let after = exec_stmts b outer env stmts in
  SMap.filter (fun name _ -> SMap.mem name env) after

(* Per-pass output volumes: constraints and variables generated by the
   flattening front-end (Ginger form) and the §4 transform (Zaatar form). *)
let c_ginger_constraints = Zobs.Counter.make "compile.ginger_constraints"
let c_ginger_variables = Zobs.Counter.make "compile.ginger_variables"
let c_zaatar_constraints = Zobs.Counter.make "compile.zaatar_constraints"
let c_zaatar_variables = Zobs.Counter.make "compile.zaatar_variables"

let compile ~ctx (src : string) : compiled =
  Zobs.Span.with_ ~name:"compile" @@ fun () ->
  let prog = Parser.parse_program src in
  let b = Builder.create ctx in
  let env = ref SMap.empty in
  let num_inputs = ref 0 in
  (* Inputs bind to fresh distinguished variables, in declaration order. *)
  List.iter
    (fun (p : Ast.param) ->
      if p.Ast.pdir = Ast.Input then begin
        let width = p.Ast.ptyp.Ast.bits - 1 in
        let bind =
          match p.Ast.plen with
          | None ->
            let v = Builder.input b ~index:!num_inputs ~width in
            incr num_inputs;
            Scalar v
          | Some len ->
            Arr
              (Array.init len (fun _ ->
                   let v = Builder.input b ~index:!num_inputs ~width in
                   incr num_inputs;
                   v))
        in
        if SMap.mem p.Ast.pname !env then
          Ast.error_at p.Ast.ploc "duplicate parameter %S" p.Ast.pname;
        env := SMap.add p.Ast.pname bind !env
      end)
    prog.Ast.params;
  (* Outputs start as zero-initialized program variables. *)
  List.iter
    (fun (p : Ast.param) ->
      if p.Ast.pdir = Ast.Output then begin
        if SMap.mem p.Ast.pname !env then
          Ast.error_at p.Ast.ploc "duplicate parameter %S" p.Ast.pname;
        let bind =
          match p.Ast.plen with
          | None -> Scalar (Builder.const b 0)
          | Some len -> Arr (Array.make len (Builder.const b 0))
        in
        env := SMap.add p.Ast.pname bind !env
      end)
    prog.Ast.params;
  let env_final = exec_stmts b 1 !env prog.Ast.body in
  (* Bind output variables, in declaration order. *)
  let num_outputs = ref 0 in
  List.iter
    (fun (p : Ast.param) ->
      if p.Ast.pdir = Ast.Output then begin
        match SMap.find p.Ast.pname env_final with
        | Scalar v ->
          Builder.bind_output b v;
          incr num_outputs
        | Arr elems ->
          Array.iter
            (fun v ->
              Builder.bind_output b v;
              incr num_outputs)
            elems
      end)
    prog.Ast.params;
  let ginger, perm = Builder.finalize b in
  let transform = Transform.apply ginger in
  Zobs.Counter.add c_ginger_constraints (Quad.num_constraints ginger);
  Zobs.Counter.add c_ginger_variables ginger.Quad.num_z;
  Zobs.Counter.add c_zaatar_constraints (R1cs.num_constraints transform.Transform.r1cs);
  Zobs.Counter.add c_zaatar_variables transform.Transform.r1cs.R1cs.num_z;
  let n = ginger.Quad.num_vars in
  let solve_ginger inputs =
    let worig = Builder.solve_original b inputs in
    let w = Array.make (n + 1) Fp.zero in
    w.(0) <- Fp.one;
    for v = 1 to n do
      w.(perm.(v)) <- worig.(v)
    done;
    w
  in
  let solve_zaatar inputs = Transform.extend_assignment transform ginger (solve_ginger inputs) in
  {
    name = prog.Ast.name;
    ctx;
    ginger;
    transform;
    num_inputs = !num_inputs;
    num_outputs = !num_outputs;
    solve_ginger;
    solve_zaatar;
  }

(* Read back the outputs from a canonical assignment of either system. *)
let outputs_ginger c (w : Fp.el array) =
  Array.sub w (c.ginger.Quad.num_z + 1 + c.num_inputs) c.num_outputs

let outputs_zaatar c (w : Fp.el array) =
  let r = zaatar_r1cs c in
  Array.sub w (r.R1cs.num_z + 1 + c.num_inputs) c.num_outputs

(* Encoding-size statistics for Figure 9. *)
type stats = {
  z_ginger : int; (* |Z_ginger| *)
  c_ginger : int; (* |C_ginger| *)
  z_zaatar : int;
  c_zaatar : int;
  k : int; (* additive terms K *)
  k2 : int; (* distinct degree-2 terms K2 *)
  u_ginger : int; (* |Z| + |Z|^2 *)
  u_zaatar : int; (* |Z| + |C| *)
}

let stats c =
  let zg = c.ginger.Quad.num_z in
  let cg = Quad.num_constraints c.ginger in
  let r = zaatar_r1cs c in
  let zz = r.R1cs.num_z in
  let cz = R1cs.num_constraints r in
  {
    z_ginger = zg;
    c_ginger = cg;
    z_zaatar = zz;
    c_zaatar = cz;
    k = Quad.additive_terms c.ginger;
    k2 = c.transform.Transform.k2;
    u_ginger = zg + (zg * zg);
    u_zaatar = zz + cz + 1;
  }
