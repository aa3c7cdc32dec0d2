open Fieldlib

(* Domain pool and cost model. *)

let pool_tests =
  [
    Alcotest.test_case "pool map preserves order and values" `Quick (fun () ->
        let arr = Array.init 100 (fun i -> i) in
        let out = Dompool.Pool.map ~domains:4 (fun x -> x * x) arr in
        Alcotest.(check (array int)) "squares" (Array.map (fun x -> x * x) arr) out);
    Alcotest.test_case "pool with more domains than work" `Quick (fun () ->
        let out = Dompool.Pool.map ~domains:8 (fun x -> x + 1) [| 1; 2 |] in
        Alcotest.(check (array int)) "ok" [| 2; 3 |] out);
    Alcotest.test_case "pool on empty and singleton" `Quick (fun () ->
        Alcotest.(check (array int)) "empty" [||] (Dompool.Pool.map ~domains:4 (fun x -> x) [||]);
        Alcotest.(check (array int)) "one" [| 7 |] (Dompool.Pool.map ~domains:4 (fun x -> x) [| 7 |]));
    Alcotest.test_case "pool mapi: domains 1, 2 and 4 give equal arrays" `Quick (fun () ->
        let arr = Array.init 257 (fun i -> (i * 37) mod 101) in
        let run d f = Dompool.Pool.mapi ~domains:d f arr in
        List.iter
          (fun d ->
            Alcotest.(check (array int)) (Printf.sprintf "ints, %d domains" d) (run 1 (fun i x -> (i * 1000) + x))
              (run d (fun i x -> (i * 1000) + x));
            Alcotest.(check (array (float 0.))) (Printf.sprintf "floats, %d domains" d)
              (run 1 (fun i x -> float_of_int (i - x) /. 3.))
              (run d (fun i x -> float_of_int (i - x) /. 3.));
            Alcotest.(check (array string)) (Printf.sprintf "strings, %d domains" d)
              (run 1 (fun i x -> Printf.sprintf "%d:%d" i x))
              (run d (fun i x -> Printf.sprintf "%d:%d" i x)))
          [ 2; 4 ]);
    Alcotest.test_case "pool: a map inside a task runs inline" `Quick (fun () ->
        let inner = Array.init 16 Fun.id in
        let s0 = Dompool.Pool.spawned () in
        let out =
          Dompool.Pool.map ~domains:4
            (fun k -> Dompool.Pool.map ~domains:4 (fun x -> x * k) inner)
            (Array.init 8 Fun.id)
        in
        Array.iteri
          (fun k row -> Alcotest.(check (array int)) (Printf.sprintf "row %d" k) (Array.map (fun x -> x * k) inner) row)
          out;
        Alcotest.(check bool) "no more than one map's workers" true (Dompool.Pool.spawned () - s0 <= 3));
    Alcotest.test_case "pool: a raising task re-raises on the caller, and the pool goes on" `Quick
      (fun () ->
        let arr = Array.init 64 Fun.id in
        for _ = 1 to 20 do
          match Dompool.Pool.map ~domains:4 (fun x -> if x mod 7 = 3 then failwith (string_of_int x) else x) arr with
          | _ -> Alcotest.fail "no exception"
          | exception Failure m -> Alcotest.(check string) "lowest raising index" "3" m
        done;
        Alcotest.(check (array int)) "next map" (Array.map succ arr) (Dompool.Pool.map ~domains:4 succ arr));
    Alcotest.test_case "pool runs field work across domains" `Quick (fun () ->
        (* Shared immutable Fp context used from several domains. *)
        let ctx = Fp.create Primes.p127 in
        let xs = Array.init 64 (fun i -> Fp.of_int ctx (i + 1)) in
        let out = Dompool.Pool.map ~domains:4 (fun x -> Fp.mul ctx x x) xs in
        Array.iteri
          (fun i y -> Alcotest.(check bool) "sq" true (Fp.equal y (Fp.of_int ctx ((i + 1) * (i + 1)))))
          out);
  ]

let params : Costmodel.Params.t =
  (* A synthetic parameter set resembling the paper's table (§5.1),
     seconds. *)
  {
    Costmodel.Params.e = 65e-6;
    d = 170e-6;
    h = 91e-6;
    f_lazy = 68e-9;
    f = 210e-9;
    f_packed = 210e-9;
    f_div = 2e-6;
    c = 160e-9;
    field_bits = 128;
    group_bits = 1024;
  }

let pp = { Costmodel.Model.rho = 8; rho_lin = 20 }

let sizes ~z ~k2 ~t_local : Costmodel.Model.sizes =
  {
    Costmodel.Model.z_ginger = z;
    c_ginger = z;
    z_zaatar = z + k2;
    c_zaatar = z + k2;
    k = 3 * z;
    k2;
    n_x = 32;
    n_y = 32;
    t_local;
  }

let model_tests =
  [
    Alcotest.test_case "proof vector: zaatar linear, ginger quadratic" `Quick (fun () ->
        let s = sizes ~z:1000 ~k2:500 ~t_local:1e-3 in
        Alcotest.(check int) "ginger" (1000 + (1000 * 1000)) (Costmodel.Model.u_ginger s);
        Alcotest.(check int) "zaatar" (1500 + 1500 + 1) (Costmodel.Model.u_zaatar s));
    Alcotest.test_case "zaatar prover beats ginger prover off the degenerate case" `Quick (fun () ->
        let s = sizes ~z:2000 ~k2:800 ~t_local:1e-3 in
        let zp = Costmodel.Model.zaatar_prover params pp s in
        let gp = Costmodel.Model.ginger_prover params pp s in
        Alcotest.(check bool) "orders of magnitude" true
          (gp.Costmodel.Model.total_p > 100.0 *. zp.Costmodel.Model.total_p));
    Alcotest.test_case "degenerate case: K2 ~ Z^2/2 makes zaatar comparable" `Quick (fun () ->
        (* §4: when K2 approaches K2* = (|Z|^2-|Z|)/2, |u_zaatar| ~ |u_ginger|. *)
        let z = 100 in
        let k2 = (z * z) - z in
        let k2 = k2 / 2 in
        let s = sizes ~z ~k2 ~t_local:1e-3 in
        let uz = Costmodel.Model.u_zaatar s and ug = Costmodel.Model.u_ginger s in
        Alcotest.(check bool) "within the (1 + 2/(|Z|+1)) bound" true
          (float_of_int uz <= float_of_int ug *. (1.0 +. 2.0 /. float_of_int (z + 1)) +. 3.0));
    Alcotest.test_case "breakeven batch sizes: zaatar far smaller (Figure 7)" `Quick (fun () ->
        let s = sizes ~z:2000 ~k2:500 ~t_local:5e-2 in
        match (Costmodel.Model.zaatar_breakeven params pp s, Costmodel.Model.ginger_breakeven params pp s) with
        | Some bz, Some bg ->
          Alcotest.(check bool) "smaller" true (bz < bg);
          Alcotest.(check bool) "orders of magnitude" true (bg / bz > 100)
        | _ -> Alcotest.fail "breakeven should exist when t_local is large");
    Alcotest.test_case "no breakeven when verification costs more than local" `Quick (fun () ->
        let s = sizes ~z:2000 ~k2:500 ~t_local:1e-9 in
        Alcotest.(check bool) "none" true (Costmodel.Model.zaatar_breakeven params pp s = None));
    Alcotest.test_case "measured microbenchmarks are sane" `Slow (fun () ->
        let ctx = Fp.create Primes.p61 in
        let grp = Zcrypto.Group.cached ~field_order:Primes.p61 ~p_bits:192 () in
        let m = Costmodel.Params.measure ~iters:100 ctx grp in
        Alcotest.(check bool) "f > 0" true (m.Costmodel.Params.f > 0.0);
        Alcotest.(check bool) "lazy cheaper than full mult" true
          (m.Costmodel.Params.f_lazy <= m.Costmodel.Params.f *. 1.5);
        Alcotest.(check bool) "crypto dwarfs field ops" true
          (m.Costmodel.Params.e > 10.0 *. m.Costmodel.Params.f));
  ]

let suite = pool_tests @ model_tests
