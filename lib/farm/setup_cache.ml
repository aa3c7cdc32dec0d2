(* Setup_cache: a byte-bounded LRU keyed by computation digest.

   The protocol amortizes setup within one verifier's batch; this cache
   amortizes it across connections — the compiled QAP (subproduct tree,
   middle-product kernel, NTT domain) is a pure function of the
   constraint system, so any two sessions naming the same digest can
   share one prewarmed copy (DESIGN.md §14). Values are built under the lock: when two same-digest
   sessions race on a cold cache, the second blocks briefly and then hits,
   instead of both paying for construction.

   Generic over the value so the LRU policy is testable without building
   real QAPs; the farm instantiates it at [Qapb.t]. *)

type 'a entry = { value : 'a; bytes : int; mutable last_used : int }

type stats = { hits : int; misses : int; evictions : int; entries : int; bytes : int }

type 'a t = {
  mu : Mutex.t;
  bound_bytes : int;
  tbl : (string, 'a entry) Hashtbl.t;
  mutable clock : int; (* logical time for LRU ordering *)
  mutable total_bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~bound_bytes =
  {
    mu = Mutex.create ();
    bound_bytes;
    tbl = Hashtbl.create 16;
    clock = 0;
    total_bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let evict_lru t ~keep =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        if k = keep then acc
        else
          match acc with
          | Some (_, best) when best.last_used <= e.last_used -> acc
          | _ -> Some (k, e))
      t.tbl None
  in
  match victim with
  | None -> false
  | Some (k, e) ->
    Hashtbl.remove t.tbl k;
    t.total_bytes <- t.total_bytes - e.bytes;
    t.evictions <- t.evictions + 1;
    true

let find t key build =
  locked t (fun () ->
      t.clock <- t.clock + 1;
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
        e.last_used <- t.clock;
        t.hits <- t.hits + 1;
        (e.value, `Hit)
      | None ->
        let value, bytes = build () in
        t.misses <- t.misses + 1;
        if bytes <= t.bound_bytes then begin
          Hashtbl.replace t.tbl key { value; bytes; last_used = t.clock };
          t.total_bytes <- t.total_bytes + bytes;
          while t.total_bytes > t.bound_bytes && evict_lru t ~keep:key do
            ()
          done
        end;
        (value, `Miss))

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.tbl;
        bytes = t.total_bytes;
      })

let mem t key = locked t (fun () -> Hashtbl.mem t.tbl key)
