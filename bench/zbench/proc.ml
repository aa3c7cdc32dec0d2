(* A `zaatar serve` child process. The server runs as its own process so
   the benchmark's GC pauses stay out of its timings and its command-line
   flag handling is the deployed one. Its stdout goes to a file, never a
   pipe: nobody drains a pipe while the benchmark runs, and a full pipe
   would block the server's logging and with it the event loop. *)

type t = {
  pid : int;
  addr : string;  (** the "HOST:PORT" the server bound *)
  metrics : string option;  (** its /json endpoint, when started with one *)
  log : string;
}

let live : int list ref = ref []

(* Reads to EOF: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* The value after [prefix] on the first log line that starts with it. *)
let find_line prefix text =
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         let k = String.length prefix in
         if String.length l > k && String.sub l 0 k = prefix then
           Some (String.trim (String.sub l k (String.length l - k)))
         else None)

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let kill pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap pid

(* Servers outlive nothing: an exception, [exit] or a SIGTERM/SIGINT to the
   benchmark stops and reaps every child it started. *)
let () =
  at_exit (fun () -> List.iter kill !live);
  let stop _ = exit 2 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop)

(* Start [cli serve FILES --listen 127.0.0.1:0 ARGS], logging to [log], and
   return once the log names the bound address (and the metrics address,
   when [metrics] asks for an endpoint). *)
let spawn ~cli ~log ~files ~args ~metrics =
  let argv =
    (cli :: "serve" :: files)
    @ [ "--listen"; "127.0.0.1:0" ]
    @ (if metrics then [ "--metrics-listen"; "127.0.0.1:0" ] else [])
    @ args
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () -> Unix.create_process cli (Array.of_list argv) null out out)
  in
  live := pid :: !live;
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec poll () =
    let text = read_file log in
    match (find_line "listening on " text, metrics, find_line "metrics on " text) with
    | Some addr, false, _ -> { pid; addr; metrics = None; log }
    | Some addr, true, (Some _ as m) -> { pid; addr; metrics = m; log }
    | _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith (Printf.sprintf "zaatar serve exited before listening:\n%s" text));
      if Unix.gettimeofday () > deadline then begin
        kill pid;
        failwith "zaatar serve did not start listening within 60 s"
      end;
      Unix.sleepf 0.002;
      poll ()
  in
  poll ()

(* "serving FILE as computation DIGEST" lines: what the server compiled. *)
let served_digests t =
  String.split_on_char '\n' (read_file t.log)
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l with
         | [ "serving"; _; "as"; "computation"; d ] -> Some d
         | _ -> None)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  match find_line "VmHWM:" status with
  | Some v -> (
    match String.split_on_char ' ' v |> List.filter (( <> ) "") with
    | kb :: _ -> float_of_string kb /. 1024.0
    | [] -> failwith "malformed VmHWM")
  | None -> failwith "no VmHWM in /proc status"

let stop t = kill t.pid
