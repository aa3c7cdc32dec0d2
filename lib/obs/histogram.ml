(* Power-of-two bucketed histograms for size-shaped quantities (NTT sizes,
   query-vector lengths). Bucket i >= 1 counts values v with
   2^(i-1) <= v < 2^i; bucket 0 counts v <= 0. Snapshots report buckets as
   (lower bound, count) pairs, omitting empty buckets. *)

type t = { name : string; buckets : int Atomic.t array }

let nbuckets = 63

let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    min (nbuckets - 1) (bits v 0)
  end

let lower_bound i = if i = 0 then 0 else 1 lsl (i - 1)

let snapshot h =
  let out = ref [] in
  for i = nbuckets - 1 downto 0 do
    let c = Atomic.get h.buckets.(i) in
    if c > 0 then out := (lower_bound i, c) :: !out
  done;
  !out

(* An unregistered histogram whose [record] ignores the tracing flag: for
   always-on owners that render it themselves (the farm's loop health). *)
let create name = { name; buckets = Array.init nbuckets (fun _ -> Atomic.make 0) }

let make name =
  let h = create name in
  Registry.register_histogram name
    (fun () -> snapshot h)
    (fun () -> Array.iter (fun a -> Atomic.set a 0) h.buckets);
  h

let record h v = ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1)
let observe h v = if Registry.on () then record h v
let name h = h.name

let total h = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 h.buckets

(* Approximate percentile from a snapshot: the lower bound of the bucket
   holding the ceil(p% * total)-th sample, so the answer is exact up to the
   power-of-two bucket resolution. [None] on an empty histogram. Operating
   on snapshots keeps one read consistent across p50/p95/p99 and lets the
   sinks compute percentiles from registry values they already hold. *)
let percentile_of_snapshot (snap : (int * int) list) (p : float) : int option =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 snap in
  if total = 0 then None
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int total)) in
    let rank = min total (max 1 rank) in
    let rec go acc = function
      | [] -> None
      | (lo, c) :: rest -> if acc + c >= rank then Some lo else go (acc + c) rest
    in
    go 0 snap
  end

let percentile h p = percentile_of_snapshot (snapshot h) p
