(** The one bench harness: the run's mode and its one knob, scratch
    directories, the in-memory service fixture, request helpers, latency
    accumulators and the closed loop, the wall-clock timers, one
    JSON writer, and the gate reporter.  Every P-bench is built on it. *)

module Io = Repository.Io
module Repo = Repository.Repo
module Service = Server.Service
module Protocol = Server.Protocol
module Client = Server.Client

(* --- the run's mode and its one knob ---------------------------------------- *)

(** [--smoke]: every bench at its smallest size with 0.2 s cells, gates
    non-binding, no JSON written.  A failed request or a raised
    exception still fails the run. *)
let smoke = ref false

(** [full] on a real run, [small] under [--smoke]. *)
let sized full small = if !smoke then small else full

(** The first (smallest) of [sizes] under [--smoke], all of them
    otherwise. *)
let smallest sizes = sized sizes [ List.hd sizes ]

(** Seconds per time-boxed cell: [SWSD_BENCH_SECS] (default 2). *)
let cell_secs () =
  if !smoke then 0.2
  else
    match Option.bind (Sys.getenv_opt "SWSD_BENCH_SECS") float_of_string_opt with
    | Some s when s > 0.0 -> s
    | _ -> 2.0

(** The disk the in-memory benches model: every fsync stalls this long. *)
let fsync_stall_ms = 5.0

(* --- scratch directories and the daemon under test --------------------------- *)

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

(* --- the service fixture ----------------------------------------------------- *)

(** The two-interface schema the service benches design on. *)
let schema_text =
  "interface Person { attribute string name; attribute int age; };\n\
   interface Course { attribute string title; attribute string code; };"

(** [Repo.init] on [dir] with [variants] created, or raise. *)
let init_repo ?io ?(schema = Odl.Parser.parse_schema schema_text) dir variants =
  match Repo.init ?io dir schema with
  | Ok repo ->
      List.iter
        (fun v ->
          match Repo.create_variant repo v with
          | Ok _ -> ()
          | Error e -> failwith e)
        variants
  | Error e -> failwith e

(** A service over a fresh in-memory repository holding [variants].  With
    [~stall], each fsync first sleeps {!fsync_stall_ms}; the stall wraps
    outside the serializing [Io.locked] layer, so it blocks only the
    fsyncing thread, as a real fsync would, not all I/O. *)
let mem_service ?(config = Service.default_config) ?obs ?schema
    ?(stall = false) variants =
  let io = Io.locked (Io.mem_io (Io.mem_create ())) in
  init_repo ~io ?schema "/repo" variants;
  let io =
    if stall then Io.with_fsync_delay (fsync_stall_ms /. 1000.0) io else io
  in
  match
    Service.open_service
      ~config:{ config with Service.use_file_locks = false }
      ?obs ~io "/repo"
  with
  | Ok t -> t
  | Error e -> failwith e

(* --- requests and sessions --------------------------------------------------- *)

(** Issue [line] on an in-process connection; anything but ok raises. *)
let must t c line =
  let r = Service.request t c line in
  match r.Protocol.status with
  | Protocol.Ok -> ()
  | _ -> failwith (Printf.sprintf "%s failed: %s" line (Protocol.to_string r))

(** A socket client on [path], past the server's greeting. *)
let dial ?(retry_for = 10.0) path =
  match Client.connect ~retry_for path with
  | Ok c ->
      ignore (Client.read_response c);
      c
  | Error m -> failwith (path ^ ": " ^ m)

(** {!must} over a socket client. *)
let must_remote c line =
  match Client.request c line with
  | Some lines when List.mem "!ok" lines -> ()
  | Some lines ->
      failwith (Printf.sprintf "%s: %s" line (String.concat " | " lines))
  | None -> failwith (line ^ ": server hung up")

(** Writer [w]'s [k]th mutation: alternately add and delete its own
    attribute, so every op is accepted, journals one record, and leaves
    the schema the same size however long a cell runs. *)
let write_line ~w k =
  if k land 1 = 0 then
    Printf.sprintf "apply add_attribute(Person, string, 8, w%d)" w
  else Printf.sprintf "apply delete_attribute(Person, w%d)" w

let session_of schema =
  match Core.Session.create schema with
  | Ok s -> s
  | Error _ -> failwith "bench schema should be valid"

(** Apply one wagon-wheel op given as text, or raise. *)
let apply session text =
  match
    Core.Session.apply session ~kind:Core.Concept.Wagon_wheel
      (Core.Op_parser.parse text)
  with
  | Ok (s, _) -> s
  | Error e -> failwith (text ^ ": " ^ Core.Apply.error_to_string e)

(* --- latencies and the closed loop -------------------------------------------- *)

(** Request latencies in seconds, newest first. *)
type lats = { mutable xs : float list; mutable n : int }

let lats () = { xs = []; n = 0 }

let observe l dt =
  l.xs <- dt :: l.xs;
  l.n <- l.n + 1

(** Run [f x], recording its wall time in [l]; [x] is built untimed. *)
let timed l f x =
  let t0 = Unix.gettimeofday () in
  f x;
  observe l (Unix.gettimeofday () -. t0)

(** All of [ls] in one accumulator. *)
let merged ls =
  let all = lats () in
  List.iter (fun l -> List.iter (observe all) l.xs) ls;
  all

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

(** Run each of [fs] on its own thread and join them all; the first
    exception any of them raised is raised again here, so a failed
    request fails the bench. *)
let parallel fs =
  let failure = Atomic.make None in
  let threads =
    List.map
      (fun f ->
        Thread.create
          (fun () ->
            try f ()
            with e -> ignore (Atomic.compare_and_set failure None (Some e)))
          ())
      fs
  in
  List.iter Thread.join threads;
  Option.iter raise (Atomic.get failure)

(** The closed loop: one thread per client.  A client sets up untimed
    (connect, attach, warm up), then calls its [run] with its request
    step; [run] waits until every client is ready, then calls
    [step 0], [step 1], ... until [secs] after the clock started, and
    returns so the client can hang up.  A step times what it issues
    ({!timed}).  A client that raises releases the barrier, and the
    exception is raised again once all have joined. *)
let closed_loop ~secs clients =
  let n = List.length clients in
  let ready = Atomic.make 0 and go = Atomic.make false in
  let t_end = ref infinity in
  let client f () =
    let arrived = ref false in
    let run step =
      arrived := true;
      Atomic.incr ready;
      while not (Atomic.get go) do
        Thread.yield ()
      done;
      let k = ref 0 in
      while Unix.gettimeofday () < !t_end do
        step !k;
        incr k
      done
    in
    Fun.protect
      ~finally:(fun () -> if not !arrived then Atomic.incr ready)
      (fun () -> f run)
  in
  let starter () =
    while Atomic.get ready < n do
      Thread.yield ()
    done;
    t_end := Unix.gettimeofday () +. secs;
    Atomic.set go true
  in
  parallel (starter :: List.map client clients)

(* --- wall-clock timers ------------------------------------------------------- *)

(** Median wall time of [runs] calls of [f], in ms.  [setup] runs untimed
    before each call, which gets its result; every series starts from a
    settled heap, then one untimed run unless [~warm:false]. *)
let median_ms_of ?(warm = true) runs ~setup f =
  Gc.full_major ();
  if warm then f (setup ());
  let a =
    Array.init runs (fun _ ->
        let x = setup () in
        let t0 = Unix.gettimeofday () in
        f x;
        (Unix.gettimeofday () -. t0) *. 1000.)
  in
  Array.sort compare a;
  a.(runs / 2)

let median_ms ?warm runs f = median_ms_of ?warm runs ~setup:ignore f

(** Mean wall time of [reps] calls of [f], in µs. *)
let time_one ~reps f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e6

(* --- JSON -------------------------------------------------------------------- *)

type json =
  | Bool of bool
  | Int of int
  | Num of string  (** a number, already printed at its precision *)
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(** [x] printed with [digits] decimals. *)
let num digits x = Num (Printf.sprintf "%.*f" digits x)

let ints xs = Arr (List.map (fun x -> Int x) xs)

(* Objects and arrays of scalars print on one line, everything else one
   member a line. *)
let rec render ind = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num s -> s
  | Str s -> Obs.Export.json_string s
  | (Arr xs) as j when flat j -> "[" ^ String.concat ", " (List.map (render ind) xs) ^ "]"
  | (Obj kvs) as j when flat j ->
      "{ " ^ String.concat ", " (List.map (member ind) kvs) ^ " }"
  | Arr xs -> block ind "[" "]" (List.map (render (ind ^ "  ")) xs)
  | Obj kvs -> block ind "{" "}" (List.map (member (ind ^ "  ")) kvs)

and member ind (k, v) = Obs.Export.json_string k ^ ": " ^ render ind v

and block ind o c items =
  let inner = ind ^ "  " in
  o ^ "\n" ^ inner ^ String.concat (",\n" ^ inner) items ^ "\n" ^ ind ^ c

and flat = function
  | Arr xs -> List.for_all scalar xs
  | Obj kvs -> List.for_all (fun (_, v) -> scalar v) kvs
  | _ -> true

and scalar = function Arr _ | Obj _ -> false | _ -> true

(** Write the object of [members] to [path], one member a line; under
    [--smoke] the document is rendered but not written. *)
let write_json path members =
  let text = block "" "{" "}" (List.map (member "  ") members) ^ "\n" in
  if !smoke then Printf.printf "smoke: %s not written\n" path
  else begin
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    Printf.printf "wrote %s\n" path
  end

(* --- gates ------------------------------------------------------------------- *)

type gate = { passed : bool; failure : string  (** the FAIL line *) }

let gate passed fmt = Printf.ksprintf (fun failure -> { passed; failure }) fmt

(** Report [gates] after the bench's JSON is written: print a FAIL line
    for each failed gate and exit 1 if any failed.  Under [--smoke] each
    verdict is printed marked non-binding and the run goes on. *)
let report gates =
  List.iter
    (fun g ->
      if !smoke then
        Printf.printf "smoke (non-binding): %s\n"
          (if g.passed then "gate passed" else "FAIL: " ^ g.failure)
      else if not g.passed then Printf.printf "FAIL: %s\n" g.failure)
    gates;
  if (not !smoke) && List.exists (fun g -> not g.passed) gates then exit 1
