(** Shared helpers for the benches: environment knobs, scratch
    directories, the daemon under test, and a latency accumulator. *)

let env_float name default =
  match Sys.getenv_opt name with
  | Some s -> ( match float_of_string_opt s with Some f -> f | None -> default)
  | None -> default

(** A positive integer knob; anything else gives [default]. *)
let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> default

(** The daemon next to this benchmark in _build. *)
let swsd_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/swsd.exe"

(** A fresh, not-yet-created path under the system temp directory. *)
let tmp_dir () =
  let f = Filename.temp_file "swsd_bench" "" in
  Sys.remove f;
  f

(** Remove a file or directory tree; a missing path is not an error. *)
let rec rm_rf p =
  if (try Sys.is_directory p with Sys_error _ -> false) then begin
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Sys.rmdir p
  end
  else if Sys.file_exists p then Sys.remove p

(** Request latencies in seconds, newest first. *)
type lats = { mutable xs : float list; mutable n : int }

let lats () = { xs = []; n = 0 }

let observe l dt =
  l.xs <- dt :: l.xs;
  l.n <- l.n + 1

(** The nearest-rank [q] quantile, in milliseconds; 0 when empty. *)
let quantile_ms q l =
  match l.xs with
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
      *. 1000.0

let p99_ms = quantile_ms 0.99
