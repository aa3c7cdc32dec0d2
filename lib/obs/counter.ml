(* Named monotonic counters for semantic cost events (field multiplications,
   group exponentiations, PRG bytes, ...). Each domain increments a private
   cell reached through domain-local storage, so the per-op hot path is an
   unsynchronized load/store with no cache-line contention across Pool
   workers; [value] merges the cells deterministically, summing shards in
   ascending domain-id order on top of the folded base. A Pool worker folds
   its cells into the base at the end of every job
   ([Registry.flush_domain]) and keeps them attached for the next one; a
   domain that exits folds and detaches them, so its tallies survive it
   and the shard list stays bounded by the live domains. The
   [Registry.on] check keeps the disabled path to one atomic load, as
   before. *)

type shard = { cell : int ref; mutable attached : bool }

type t = {
  name : string;
  base : int Atomic.t; (* tallies folded in from cells *)
  mu : Mutex.t;
  shards : (int * shard) list ref; (* live (domain id, cell) pairs *)
  key : shard Domain.DLS.key;
}

let make name =
  let mu = Mutex.create () in
  let shards = ref [] in
  let base = Atomic.make 0 in
  (* Move a cell's tally into the base, on the cell's own domain. *)
  let fold ~detach s =
    Mutex.lock mu;
    Atomic.set base (Atomic.get base + !(s.cell));
    s.cell := 0;
    if detach then begin
      let id = (Domain.self () :> int) in
      s.attached <- false;
      shards := List.filter (fun (i, _) -> i <> id) !shards
    end;
    Mutex.unlock mu
  in
  let key =
    Domain.DLS.new_key (fun () ->
        let s = { cell = ref 0; attached = false } in
        Domain.at_exit (fun () -> if s.attached then fold ~detach:true s);
        s)
  in
  let merged () =
    Mutex.lock mu;
    let l = List.sort (fun (a, _) (b, _) -> compare a b) !shards in
    let v = List.fold_left (fun acc (_, s) -> acc + !(s.cell)) (Atomic.get base) l in
    Mutex.unlock mu;
    v
  in
  let reset () =
    Atomic.set base 0;
    Mutex.lock mu;
    List.iter (fun (_, s) -> s.cell := 0) !shards;
    Mutex.unlock mu
  in
  let flush () =
    let s = Domain.DLS.get key in
    if s.attached then fold ~detach:false s
  in
  Registry.register_counter name merged reset;
  Registry.register_flusher flush;
  { name; base; mu; shards; key }

let attach c (s : shard) =
  Mutex.lock c.mu;
  if not s.attached then begin
    c.shards := ((Domain.self () :> int), s) :: !(c.shards);
    s.attached <- true
  end;
  Mutex.unlock c.mu

let incr c =
  if Registry.on () then begin
    let s = Domain.DLS.get c.key in
    if not s.attached then attach c s;
    s.cell := !(s.cell) + 1
  end

let add c n =
  if Registry.on () && n <> 0 then begin
    let s = Domain.DLS.get c.key in
    if not s.attached then attach c s;
    s.cell := !(s.cell) + n
  end

let value c =
  Mutex.lock c.mu;
  let l = List.sort (fun (a, _) (b, _) -> compare a b) !(c.shards) in
  let v = List.fold_left (fun acc (_, s) -> acc + !(s.cell)) (Atomic.get c.base) l in
  Mutex.unlock c.mu;
  v

let name c = c.name
