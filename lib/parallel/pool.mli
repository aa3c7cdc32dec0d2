(** One process-wide pool of worker domains for order-preserving maps —
    the substitute for the paper's distributed prover and GPU offload
    (§5.2, Figure 6; see DESIGN.md §2). Batch instances are independent;
    everything shared is immutable, so an atomic work counter suffices.
    Workers start lazily, up to the largest [domains] a map has asked for,
    park between maps and are joined at exit. *)

val num_cores : unit -> int

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving: the caller and up to [domains - 1] pool workers
    share the tasks. Runs inline ([Array.map]) when [domains <= 1], on
    fewer than two elements, inside another map's task, or while another
    domain's map holds the pool. If tasks raise, the exception of the
    lowest such index is re-raised on the caller. The mapped function must
    not force shared lazy values (force them before). *)

val mapi : ?domains:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** {!map} with the element index, e.g. to pair each element with
    pre-drawn per-element randomness without allocating a zipped array. *)

val timed_map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array * float
(** Also returns the wall-clock latency — what Figure 6 reports. *)

val shutdown : unit -> unit
(** Stop and join the parked workers; the next map starts them again.
    Registered with [at_exit]; a no-op inside a task. *)

val size : unit -> int
(** Workers alive now. *)

val spawned : unit -> int
(** Worker domains spawned since the process started. *)
