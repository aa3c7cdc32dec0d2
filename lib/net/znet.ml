(* Znet: blocking TCP transport with length-prefixed framing, connect/read
   timeouts and bounded retry. See znet.mli for the contract; DESIGN.md §9
   for how the argument layer drives it. *)

module Svcstats = Svcstats
module Metrics_http = Metrics_http

type error =
  | Timeout of string
  | Refused of string
  | Closed of string
  | Bad_addr of string
  | Frame_too_large of int

exception Net_error of error

let error_to_string = function
  | Timeout what -> Printf.sprintf "timed out %s" what
  | Refused what -> Printf.sprintf "connection failed: %s" what
  | Closed what -> Printf.sprintf "connection closed: %s" what
  | Bad_addr what -> Printf.sprintf "bad address %s (expected HOST:PORT)" what
  | Frame_too_large n -> Printf.sprintf "frame length %d exceeds the limit" n

let fail e = raise (Net_error e)

(* A write to a dead peer must surface as Net_error Closed (EPIPE), not
   kill the process. *)
let () = if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let parse_addr s =
  match String.rindex_opt s ':' with
  | None -> fail (Bad_addr s)
  | Some i ->
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port with
    | Some p when p >= 0 && p < 65536 ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found | Invalid_argument _ -> fail (Bad_addr s))
      in
      Unix.ADDR_INET (addr, p)
    | _ -> fail (Bad_addr s))

let string_of_sockaddr = function
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX p -> p

type conn = { fd : Unix.file_descr; peer : string }

let of_fd fd = { fd; peer = "fd" }
let peer conn = conn.peer

let set_timeout conn ms =
  let s = float_of_int ms /. 1000.0 in
  (try Unix.setsockopt_float conn.fd Unix.SO_RCVTIMEO s with Unix.Unix_error _ -> ());
  try Unix.setsockopt_float conn.fd Unix.SO_SNDTIMEO s with Unix.Unix_error _ -> ()

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* One bounded-time connect attempt: non-blocking connect + select. *)
let connect_once sa ~timeout_ms =
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try
     Unix.set_nonblock fd;
     (try Unix.connect fd sa with
     | Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ()
     | Unix.Unix_error (e, _, _) -> fail (Refused (Unix.error_message e)));
     let _, w, _ = Unix.select [] [ fd ] [] (float_of_int timeout_ms /. 1000.0) in
     if w = [] then fail (Timeout "connecting");
     (match Unix.getsockopt_error fd with
     | Some e -> fail (Refused (Unix.error_message e))
     | None -> ());
     Unix.clear_nonblock fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let transient = function
  | Refused _ -> true (* ECONNREFUSED, EHOSTUNREACH, ... : the peer may just be starting *)
  | Timeout _ | Closed _ | Bad_addr _ | Frame_too_large _ -> false

let connect ?(timeout_ms = 5000) ?(retries = 5) ?(backoff_ms = 50) addr =
  let sa = parse_addr addr in
  (match sa with
  | Unix.ADDR_INET (_, 0) -> fail (Bad_addr (addr ^ " (port 0 is listen-only)"))
  | _ -> ());
  let rec attempt n backoff =
    match connect_once sa ~timeout_ms with
    | fd ->
      let conn = { fd; peer = addr } in
      set_timeout conn timeout_ms;
      conn
    | exception Net_error e when transient e && n < retries ->
      Zobs.Log.warn
        ~fields:
          [
            Zobs.Log.str "peer" addr;
            Zobs.Log.int "attempt" (n + 1);
            Zobs.Log.int "backoff_ms" backoff;
            Zobs.Log.str "cause" (error_to_string e);
          ]
        "connect retry";
      Unix.sleepf (float_of_int backoff /. 1000.0);
      attempt (n + 1) (backoff * 2)
    | exception Net_error e ->
      fail (Refused (Printf.sprintf "%s after %d attempt(s): %s" addr (n + 1) (error_to_string e)))
    | exception Unix.Unix_error (e, _, _) ->
      fail (Refused (Printf.sprintf "%s: %s" addr (Unix.error_message e)))
  in
  attempt 0 backoff_ms

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let c_frames_sent = Zobs.Counter.make "net.frames.sent"
let c_frames_recv = Zobs.Counter.make "net.frames.recv"

let write_all conn buf =
  let len = Bytes.length buf in
  let off = ref 0 in
  while !off < len do
    match Unix.write conn.fd buf !off (len - !off) with
    | 0 -> fail (Closed (conn.peer ^ " stopped accepting bytes"))
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      fail (Timeout ("writing to " ^ conn.peer))
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      fail (Closed (conn.peer ^ " went away mid-write (peer crash?)"))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Fill [buf] from [off] to its end; [`Header] at offset 0 is a frame
   boundary, where EOF is an orderly close rather than a crash. *)
let read_all ?(off = 0) conn buf ~what =
  let len = Bytes.length buf in
  let off = ref off in
  while !off < len do
    match Unix.read conn.fd buf !off (len - !off) with
    | 0 ->
      if !off = 0 && what = `Header then fail (Closed (conn.peer ^ " closed the connection"))
      else fail (Closed (conn.peer ^ " went away mid-frame (peer crash?)"))
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      fail (Timeout ("reading from " ^ conn.peer))
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
      fail (Closed (conn.peer ^ " reset the connection"))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* A payload buffer starts at [initial_payload] bytes and doubles toward
   the frame length only when full, so a length prefix alone never buys a
   large allocation: memory follows the bytes the peer actually sent. *)
let initial_payload = 64 * 1024

let grown buf ~filled ~len =
  let b = Bytes.create (min len (max initial_payload (2 * Bytes.length buf))) in
  Bytes.blit buf 0 b 0 filled;
  b

let send conn payload =
  let len = Bytes.length payload in
  let hdr = Bytes.create 4 in
  Bytes.set_uint8 hdr 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 hdr 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 hdr 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 hdr 3 (len land 0xff);
  write_all conn hdr;
  write_all conn payload;
  Zobs.Counter.incr c_frames_sent

let recv ?(max_frame = 1 lsl 30) conn =
  let hdr = Bytes.create 4 in
  read_all conn hdr ~what:`Header;
  let len =
    (Bytes.get_uint8 hdr 0 lsl 24)
    lor (Bytes.get_uint8 hdr 1 lsl 16)
    lor (Bytes.get_uint8 hdr 2 lsl 8)
    lor Bytes.get_uint8 hdr 3
  in
  if len > max_frame then fail (Frame_too_large len);
  let payload = ref Bytes.empty in
  while Bytes.length !payload < len do
    let filled = Bytes.length !payload in
    payload := grown !payload ~filled ~len;
    read_all ~off:filled conn !payload ~what:`Payload
  done;
  Zobs.Counter.incr c_frames_recv;
  !payload

(* ------------------------------------------------------------------ *)
(* Servers                                                             *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Nonblocking additions (the farm's event loop)                       *)
(* ------------------------------------------------------------------ *)

let fd conn = conn.fd
let set_nonblocking conn = Unix.set_nonblock conn.fd

let frame payload =
  let len = Bytes.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set_uint8 b 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (len land 0xff);
  Bytes.blit payload 0 b 4 len;
  b

let write_some conn buf ~off =
  let len = Bytes.length buf - off in
  if len <= 0 then 0
  else
    match Unix.write conn.fd buf off len with
    | n ->
      if n > 0 && off + n = Bytes.length buf then Zobs.Counter.incr c_frames_sent;
      n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      fail (Closed (conn.peer ^ " went away mid-write (peer crash?)"))

(* Resumable framed reads: the reader owns the partial-transfer state the
   blocking [recv] keeps on its stack, so a select loop can feed it
   whatever bytes the socket has and come back later. *)
module Frame_reader = struct
  type t = {
    max_frame : int;
    hdr : bytes;
    mutable hdr_off : int;
    mutable len : int; (* the header's payload length, once complete *)
    mutable payload : bytes; (* grows toward [len] as bytes arrive *)
    mutable payload_off : int;
  }

  let create ?(max_frame = 1 lsl 30) () =
    { max_frame; hdr = Bytes.create 4; hdr_off = 0; len = 0; payload = Bytes.empty; payload_off = 0 }

  let reset t =
    t.hdr_off <- 0;
    t.len <- 0;
    t.payload <- Bytes.empty;
    t.payload_off <- 0

  let grow t = t.payload <- grown t.payload ~filled:t.payload_off ~len:t.len

  (* Read what the socket has; [`Frame p] resets the state for the next
     frame. EOF at a frame boundary is [`Eof]; EOF mid-frame raises
     [Closed] like the blocking reader. *)
  let step t conn =
    let read_into buf off len =
      match Unix.read conn.fd buf off len with
      | 0 ->
        if t.hdr_off = 0 then `Eof
        else fail (Closed (conn.peer ^ " went away mid-frame (peer crash?)"))
      | n -> `Read n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        `Again
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
        fail (Closed (conn.peer ^ " reset the connection"))
    in
    let rec go () =
      if t.hdr_off < 4 then
        match read_into t.hdr t.hdr_off (4 - t.hdr_off) with
        | `Eof -> `Eof
        | `Again -> `Awaiting
        | `Read n ->
          t.hdr_off <- t.hdr_off + n;
          if t.hdr_off = 4 then begin
            let len =
              (Bytes.get_uint8 t.hdr 0 lsl 24)
              lor (Bytes.get_uint8 t.hdr 1 lsl 16)
              lor (Bytes.get_uint8 t.hdr 2 lsl 8)
              lor Bytes.get_uint8 t.hdr 3
            in
            if len > t.max_frame then fail (Frame_too_large len);
            t.len <- len
          end;
          go ()
      else if t.payload_off < t.len then begin
        if t.payload_off = Bytes.length t.payload then grow t;
        match read_into t.payload t.payload_off (Bytes.length t.payload - t.payload_off) with
        | `Eof -> `Eof (* unreachable: read_into raises mid-frame *)
        | `Again -> `Awaiting
        | `Read n ->
          t.payload_off <- t.payload_off + n;
          go ()
      end
      else begin
        let p = t.payload in
        reset t;
        Zobs.Counter.incr c_frames_recv;
        `Frame p
      end
    in
    go ()
end

type server = { sfd : Unix.file_descr; addr : string }

let listen ?(backlog = 16) addr =
  let sa = parse_addr addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd sa;
     Unix.listen fd backlog
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     fail (Refused (Printf.sprintf "listen %s: %s" addr (Unix.error_message e))));
  { sfd = fd; addr = string_of_sockaddr (Unix.getsockname fd) }

let bound_addr s = s.addr

let accept s =
  let rec go () =
    match Unix.accept s.sfd with
    | fd, peer -> { fd; peer = string_of_sockaddr peer }
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let server_fd s = s.sfd
let set_server_nonblocking s = Unix.set_nonblock s.sfd

let accept_nonblock s =
  match Unix.accept s.sfd with
  | fd, peer -> Some { fd; peer = string_of_sockaddr peer }
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _) ->
    None

let close_server s = try Unix.close s.sfd with Unix.Unix_error _ -> ()
