(* One process-wide pool of worker domains for order-preserving maps.

   This is the substitute for the paper's distributed prover and GPU
   offload (§5.2, Figure 6): batch instances are independent, so the prover
   parallelizes across them; "GPUs" become extra domains dedicated to the
   crypto phase (see DESIGN.md §2). All shared state reached from worker
   domains is immutable (field contexts, constraint systems, QAP trees), so
   an atomic work counter suffices.

   Workers are spawned lazily, never more than the largest [domains] a map
   has asked for, and park on [wake] between jobs; they keep their
   domain-local state (span stack, REDC scratch, counter shards) from one
   job to the next. A map posts one job: the caller and up to [domains - 1]
   workers run its loop, and the caller returns once every worker that
   joined has left. One job runs at a time; a map issued while another
   domain's job holds the pool, or from inside a job, runs inline. *)

let num_cores () =
  match Domain.recommended_domain_count () with n when n > 0 -> n | _ -> 1

type job = { run : unit -> unit; mutable seats : int (* workers that may still join *) }

let mu = Mutex.create ()
let wake = Condition.create () (* a job was posted, or the pool is stopping *)
let idle = Condition.create () (* the last worker left a job *)
let posted : job option ref = ref None
let busy = ref 0 (* workers inside the posted job *)
let workers : unit Domain.t list ref = ref []
let epoch = ref 0 (* bumped by [shutdown]: a worker of an older epoch exits *)
let spawned = Atomic.make 0

(* Set on workers for good, and on a caller while it runs its job's loop. *)
let in_job = Domain.DLS.new_key (fun () -> false)

(* A worker takes a seat in the posted job, runs the loop under
   [Ledger.worker_scope] (which hands its counter shards and GC words to
   the caller's open phase at job end), and parks again. *)
let rec worker e =
  Mutex.lock mu;
  let rec take () =
    if !epoch <> e then None
    else
      match !posted with
      | Some j when j.seats > 0 ->
        j.seats <- j.seats - 1;
        incr busy;
        Some j
      | _ ->
        Condition.wait wake mu;
        take ()
  in
  let j = take () in
  Mutex.unlock mu;
  match j with
  | None -> ()
  | Some j ->
    Zobs.Ledger.worker_scope j.run;
    Mutex.lock mu;
    (* Every task is claimed once [run] returns: no seat is worth taking. *)
    j.seats <- 0;
    decr busy;
    if !busy = 0 then Condition.broadcast idle;
    Mutex.unlock mu;
    worker e

(* Under [mu]. A domain that cannot be spawned leaves its seat empty: the
   caller's loop takes the work. *)
let grow want =
  try
    while List.length !workers < want do
      let e = !epoch in
      workers :=
        Domain.spawn (fun () ->
            Domain.DLS.set in_job true;
            worker e)
        :: !workers;
      Atomic.incr spawned
    done
  with Failure _ -> ()

let shutdown () =
  if not (Domain.DLS.get in_job) then begin
    Mutex.lock mu;
    let ws = !workers in
    workers := [];
    incr epoch;
    Condition.broadcast wake;
    Mutex.unlock mu;
    List.iter Domain.join ws
  end

let () = at_exit shutdown

let size () =
  Mutex.lock mu;
  let n = List.length !workers in
  Mutex.unlock mu;
  n

let spawned () = Atomic.get spawned

(* Results go straight into the output array. It cannot exist before a
   first result (no placeholder value of type 'b, and a float array is
   flat), so the participant that finishes first creates it and publishes
   it by compare-and-set over the empty array, a static atom; one that
   loses the race writes into the winner's. Of the tasks that raise, the
   lowest index wins, as in a sequential map: no task is claimed after a
   failure, and every lower index was claimed before it. *)
let mapi ?(domains = 1) (f : int -> 'a -> 'b) (arr : 'a array) : 'b array =
  let n = Array.length arr in
  let nd = min domains n in
  if nd <= 1 || Domain.DLS.get in_job then Array.mapi f arr
  else begin
    let out : 'b array Atomic.t = Atomic.make [||] in
    let next = Atomic.make 0 in
    let failure : (int * exn * Printexc.raw_backtrace) option Atomic.t = Atomic.make None in
    let rec fail i e bt =
      match Atomic.get failure with
      | Some (j, _, _) when j < i -> ()
      | cur -> if not (Atomic.compare_and_set failure cur (Some (i, e, bt))) then fail i e bt
    in
    let store i v =
      let a = Atomic.get out in
      let a =
        if a != [||] then a
        else
          let fresh = Array.make n v in
          if Atomic.compare_and_set out a fresh then fresh else Atomic.get out
      in
      a.(i) <- v
    in
    let rec run () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then
        match store i (f i arr.(i)) with
        | () -> run ()
        | exception e ->
          fail i e (Printexc.get_raw_backtrace ());
          Atomic.set next n
    in
    Mutex.lock mu;
    match !posted with
    | Some _ ->
      Mutex.unlock mu;
      Array.mapi f arr
    | None -> (
      grow (nd - 1);
      posted := Some { run; seats = nd - 1 };
      Condition.broadcast wake;
      Mutex.unlock mu;
      Domain.DLS.set in_job true;
      run ();
      Domain.DLS.set in_job false;
      (* Closing the job under [mu] orders every worker's writes before
         the read of [out]. *)
      Mutex.lock mu;
      posted := None;
      while !busy > 0 do
        Condition.wait idle mu
      done;
      Mutex.unlock mu;
      match Atomic.get failure with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> Atomic.get out)
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
