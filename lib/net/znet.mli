(** Znet: blocking TCP transport for the split verifier/prover argument
    (DESIGN.md §9).

    Frames are length-prefixed (u32 BE length, then the payload — a full
    Zwire message); reads and writes loop over partial transfers.
    [connect] retries transient connection failures (refused, unreachable)
    with exponential backoff, and both directions honour a per-connection
    timeout. Every failure mode maps to a {!Net_error} with an explicit
    taxonomy — connection refused, peer crash mid-frame, timeout — rather
    than a raw [Unix.Unix_error]. *)

module Svcstats = Svcstats
(** Per-connection accounting for the serve path (always on, mutex
    protected); rendered by the [--metrics-listen] endpoint. *)

module Metrics_http = Metrics_http
(** Minimal HTTP/1.0 text server (own Domain) + one-shot GET client for
    the metrics endpoint and [zaatar stats]. *)

type error =
  | Timeout of string
  | Refused of string  (** connect failed after all retries *)
  | Closed of string  (** peer closed or crashed (EOF/reset, possibly mid-frame) *)
  | Bad_addr of string  (** malformed HOST:PORT *)
  | Frame_too_large of int

exception Net_error of error

val error_to_string : error -> string

val parse_addr : string -> Unix.sockaddr
(** ["HOST:PORT"] with a numeric or resolvable host; raises
    [Net_error (Bad_addr _)] on malformed input. *)

(** {1 Connections} *)

type conn

val of_fd : Unix.file_descr -> conn
(** Wrap an existing stream socket (tests, [accept]). *)

val peer : conn -> string
(** Peer name: the ["HOST:PORT"] given to {!connect}, the remote address
    for accepted connections, ["fd"] for {!of_fd}. *)

val connect : ?timeout_ms:int -> ?retries:int -> ?backoff_ms:int -> string -> conn
(** Connect to ["HOST:PORT"]. Each attempt is bounded by [timeout_ms]
    (default 5000); refused/unreachable attempts are retried [retries]
    times (default 5) with doubling [backoff_ms] (default 50) sleeps.
    Raises [Net_error (Refused _)] once the budget is exhausted. The
    timeout also applies to subsequent reads and writes. *)

val set_timeout : conn -> int -> unit
(** Set the read/write timeout (milliseconds) on an accepted connection. *)

val send : conn -> bytes -> unit
(** Write one frame. Raises [Net_error (Closed _)] if the peer went away,
    [Net_error (Timeout _)] if the write stalls past the timeout. *)

val recv : ?max_frame:int -> conn -> bytes
(** Read one frame (default [max_frame] 1 GiB guards the length prefix).
    The payload buffer starts at 64 KiB and doubles as bytes arrive, as in
    {!Frame_reader}, so a length prefix alone never buys a large
    allocation. Raises [Net_error (Closed _)] on EOF — including mid-frame peer
    crashes, which are reported distinctly — and [Net_error (Timeout _)]
    on an idle wire. *)

val close : conn -> unit

(** {1 Nonblocking mode}

    The farm's event loop multiplexes many connections over [select];
    these helpers expose the raw descriptor, a partial-write primitive and
    a resumable frame reader. The blocking {!send}/{!recv} API above stays
    the client-side contract. *)

val fd : conn -> Unix.file_descr
(** The raw descriptor, for [select] sets. *)

val set_nonblocking : conn -> unit
(** Switch the socket to nonblocking mode ([O_NONBLOCK]); after this,
    use {!write_some} and {!Frame_reader} rather than {!send}/{!recv}. *)

val frame : bytes -> bytes
(** Prepend the u32-BE length header: the on-wire bytes of one frame,
    ready for {!write_some}. *)

val write_some : conn -> bytes -> off:int -> int
(** Write as much of [buf] from [off] as the socket accepts; returns the
    byte count (0 when the socket is full — try again on writability).
    Raises [Net_error (Closed _)] if the peer went away. *)

(** Incremental framed reads for nonblocking sockets: the reader holds the
    partial-transfer state the blocking {!recv} keeps on its stack. *)
module Frame_reader : sig
  type t

  val create : ?max_frame:int -> unit -> t
  (** Fresh reader (default [max_frame] 1 GiB, as {!recv}). The payload
      buffer starts at 64 KiB and doubles as bytes arrive, so memory
      follows what the peer sent, not what its length prefix claims. *)

  val step : t -> conn -> [ `Frame of bytes | `Awaiting | `Eof ]
  (** Consume whatever bytes the socket has: [`Frame p] when a full frame
      completed (the reader resets for the next one), [`Awaiting] when the
      socket drained mid-frame (call again on readability), [`Eof] on an
      orderly close at a frame boundary. Raises [Net_error (Closed _)] on
      EOF mid-frame and [Net_error (Frame_too_large _)] on an oversized
      length prefix. *)
end

(** {1 Servers} *)

type server

val listen : ?backlog:int -> string -> server
(** Bind and listen on ["HOST:PORT"]; port 0 picks an ephemeral port (read
    it back with {!bound_addr}). *)

val bound_addr : server -> string
(** The actual ["HOST:PORT"] after binding. *)

val accept : server -> conn

val server_fd : server -> Unix.file_descr
(** The listening descriptor, for [select] sets. *)

val set_server_nonblocking : server -> unit

val accept_nonblock : server -> conn option
(** One nonblocking accept: [None] when no connection is pending
    (EAGAIN/EWOULDBLOCK/ECONNABORTED), the accepted connection otherwise.
    Requires {!set_server_nonblocking}. *)

val close_server : server -> unit
