(* Work-stealing parallel map over OCaml 5 domains.

   This is the substitute for the paper's distributed prover and GPU
   offload (§5.2, Figure 6): batch instances are independent, so the prover
   parallelizes across them; "GPUs" become extra domains dedicated to the
   crypto phase (see DESIGN.md §2). All shared state reached from worker
   domains is immutable (field contexts, constraint systems, QAP trees), so
   plain Domain.spawn with an atomic work counter suffices. *)

let num_cores () =
  match Domain.recommended_domain_count () with n when n > 0 -> n | _ -> 1

(* Results go straight into the output array. It cannot exist before a
   first result (no placeholder value of type 'b, and a float array is
   flat), so the worker that finishes first creates it and publishes it
   by compare-and-set; a worker that loses the race writes into the
   winner's, and its own (at most one per domain) is garbage. *)
let mapi ?(domains = 1) (f : int -> 'a -> 'b) (arr : 'a array) : 'b array =
  let n = Array.length arr in
  if domains <= 1 || n <= 1 then Array.mapi f arr
  else begin
    let nd = min domains n in
    let out : 'b array option Atomic.t = Atomic.make None in
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let v = f i arr.(i) in
          let a =
            match Atomic.get out with
            | Some a -> a
            | None ->
              let a = Array.make n v in
              if Atomic.compare_and_set out None (Some a) then a else Option.get (Atomic.get out)
          in
          a.(i) <- v;
          go ()
        end
      in
      go ()
    in
    (* Spawned workers run under [Ledger.worker_scope]: their GC deltas are
       noted for the enclosing ledger phase (minor words are domain-local)
       and their counter shards are folded into the registry base before
       the domain exits, deterministically — so no [domains] count changes
       counter totals or drops worker-side tallies. The main domain's own
       worker call needs neither: its shards are read live and its GC is
       already in the phase's delta. Joining orders every worker's writes
       before the read of [out]. *)
    let spawned =
      Array.init (nd - 1) (fun _ -> Domain.spawn (fun () -> Zobs.Ledger.worker_scope worker))
    in
    worker ();
    Array.iter Domain.join spawned;
    Option.get (Atomic.get out)
  end

let map ?domains (f : 'a -> 'b) (arr : 'a array) : 'b array = mapi ?domains (fun _ x -> f x) arr

(* Wall-clock latency of a parallel map — what Figure 6 reports. *)
let timed_map ?domains f arr =
  let t0 = Unix.gettimeofday () in
  let r =
    Zobs.Span.with_ ~name:"pool.map"
      ~attrs:
        [
          ("domains", string_of_int (Option.value domains ~default:1));
          ("tasks", string_of_int (Array.length arr));
        ]
      (fun () -> map ?domains f arr)
  in
  (r, Unix.gettimeofday () -. t0)
