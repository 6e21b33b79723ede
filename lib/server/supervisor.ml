(** The worker processes behind [swsd serve --shards N] and [swsd serve
    --replicas K], under one supervisor.

    Shards share one repository directory: the router's consistent hash
    sends each variant to exactly one shard, so each worker owns a
    disjoint set of [variants/<name>/] trees and the single-writer-per-
    variant invariant holds across processes (the per-variant [.lock]
    advisory lock remains the cross-process backstop).  A replicated
    topology has one writer, the leader; followers replay its journal
    stream into directories of their own and serve read-only. *)

type topology = Sharded of int | Replicated of int
type role = Shard of int | Leader | Follower of int

type slot = {
  role : role;
  socket : string;
  mutable dir : string;  (** the repository it serves; the leader's moves *)
  mutable pid : int;
      (** guarded by [mu]; -1 not running, -2 consumed by a promotion *)
}

type t = {
  exe : string;
  topology : topology;
  worker_args : string list;
  slots : slot array;  (** a replicated topology's leader is slot 0 *)
  mu : Mutex.t;
  restarts : int Atomic.t;
  promotions : int Atomic.t;
  mutable supervising : bool;
  mutable supervisor : Thread.t option;
}

let role_name = function
  | Shard k -> Printf.sprintf "shard %d" k
  | Leader -> "leader"
  | Follower j -> Printf.sprintf "replica %d" j

let index = function Shard k -> k | Leader -> 0 | Follower j -> j + 1

let create ?(worker_args = []) ~exe ~dir topology =
  let slot ?(home = dir) role name =
    { role; socket = Filename.concat dir name; dir = home; pid = -1 }
  in
  let slots =
    match topology with
    | Sharded n ->
        Array.init n (fun k ->
            slot (Shard k) (Printf.sprintf "shard-%d.sock" k))
    | Replicated k ->
        Array.append
          [| slot Leader "leader.sock" |]
          (Array.init k (fun j ->
               slot
                 ~home:(Filename.concat dir (Printf.sprintf "replica-%d" j))
                 (Follower j)
                 (Printf.sprintf "replica-%d.sock" j)))
  in
  {
    exe;
    topology;
    worker_args;
    slots;
    mu = Mutex.create ();
    restarts = Atomic.make 0;
    promotions = Atomic.make 0;
    supervising = false;
    supervisor = None;
  }

let shards t = match t.topology with Sharded n -> n | Replicated _ -> 0
let slot t role = t.slots.(index role)
let socket t role = (slot t role).socket
let pid t role = Mutex.protect t.mu (fun () -> (slot t role).pid)
let leader_dir t = Mutex.protect t.mu (fun () -> (slot t Leader).dir)
let restarts t = Atomic.get t.restarts
let promotions t = Atomic.get t.promotions

(* --- processes ----------------------------------------------------------- *)

let spawn ?promote_from t s =
  let role_args =
    match s.role with
    | Shard k ->
        (* the pool size, so each worker can partition repository-wide
           fan-outs ([@query all]) to the variants the router's hash
           actually sends its way *)
        [
          "--shard-id"; string_of_int k; "--shard-total"; string_of_int (shards t);
        ]
    | Leader -> (
        "--replicate"
        ::
        (match promote_from with
        | Some d -> [ "--promote-from"; d ]
        | None -> []))
    | Follower _ -> [ "--follow"; socket t Leader ]
  in
  let argv =
    Array.of_list
      ((t.exe :: "serve" :: s.dir :: "--socket" :: s.socket :: role_args)
      @ t.worker_args)
  in
  (* workers inherit stderr for diagnostics; stdout (the "serving ..."
     banner) would interleave with the front end's, so drop it *)
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  s.pid <-
    Fun.protect
      ~finally:(fun () -> try Unix.close devnull with Unix.Unix_error _ -> ())
      (fun () -> Unix.create_process t.exe argv devnull devnull Unix.stderr)

(* [`Alive] on EINTR: the next supervisor tick will ask again. *)
let probe pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> `Alive
  | _, _ -> `Dead
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Alive
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> `Dead

let running s = s.pid >= 0 && probe s.pid = `Alive

let signal signum p =
  if p >= 0 then try Unix.kill p signum with Unix.Unix_error _ -> ()

(* SIGTERM (graceful drain) then reap; SIGKILL whatever still runs after
   [grace] seconds. *)
let terminate ~grace pids =
  List.iter (signal Sys.sigterm) pids;
  let deadline = Unix.gettimeofday () +. grace in
  let rec reap p =
    if p >= 0 && probe p = `Alive then
      if Unix.gettimeofday () > deadline then begin
        signal Sys.sigkill p;
        try ignore (Unix.waitpid [] p) with Unix.Unix_error _ -> ()
      end
      else begin
        Thread.delay 0.02;
        reap p
      end
  in
  List.iter reap pids

(* --- supervision --------------------------------------------------------- *)

let restart t s =
  match s.role with
  | Shard _ | Follower _ ->
      spawn t s;
      Atomic.incr t.restarts
  | Leader -> (
      match Array.find_opt (fun f -> f != s && running f) t.slots with
      | Some f ->
          terminate ~grace:5. [ f.pid ];
          f.pid <- -2;
          let old_dir = s.dir in
          s.dir <- f.dir;
          spawn ~promote_from:old_dir t s;
          Atomic.incr t.promotions
      | None ->
          (* self-promotion: the journal is fsck-recovered and, if this
             leader was once fenced out by a promotion, the era moves past
             the fence *)
          spawn ~promote_from:s.dir t s;
          Atomic.incr t.restarts)

(* One pass, holding [mu] across the whole decision so {!stop} never
   races a half-updated slot table.  The leader is slot 0, so a promotion
   is decided before dead followers are respawned. *)
let tick t =
  Mutex.protect t.mu (fun () ->
      if t.supervising then
        Array.iter
          (fun s -> if s.pid >= 0 && probe s.pid = `Dead then restart t s)
          t.slots)

(* Connect-with-retry until the worker accepts; fail fast once it is
   gone. *)
let wait_ready ~deadline s =
  let rec go () =
    if not (running s) then
      Error (role_name s.role ^ " exited during startup")
    else
      match
        Transport.Client.connect_to ~retry_for:0.3 (Protocol.Unix_path s.socket)
      with
      | Ok c ->
          (* consume the greeting so the worker's connection count settles *)
          ignore (Transport.Client.read_response c);
          Transport.Client.close c;
          Ok ()
      | Error m ->
          if Unix.gettimeofday () > deadline then
            Error (Printf.sprintf "%s not ready: %s" (role_name s.role) m)
          else go ()
  in
  go ()

let start t =
  let deadline = Unix.gettimeofday () +. 20. in
  let n = Array.length t.slots in
  let waves =
    match t.topology with
    | Sharded _ -> [ t.slots ]
    | Replicated _ -> [ Array.sub t.slots 0 1; Array.sub t.slots 1 (n - 1) ]
  in
  let rec launch = function
    | [] ->
        t.supervising <- true;
        t.supervisor <-
          Some
            (Thread.create
               (fun () ->
                 while t.supervising do
                   tick t;
                   Thread.delay 0.05
                 done)
               ());
        Ok ()
    | wave :: rest -> (
        Mutex.protect t.mu (fun () ->
            Array.iter (fun s -> if s.pid = -1 then spawn t s) wave);
        match
          Array.fold_left
            (fun r s -> Result.bind r (fun () -> wait_ready ~deadline s))
            (Ok ()) wave
        with
        | Ok () -> launch rest
        | Error _ as e -> e)
  in
  launch waves

let stop ?(grace = 10.) t =
  t.supervising <- false;
  Option.iter Thread.join t.supervisor;
  t.supervisor <- None;
  let pids =
    Mutex.protect t.mu (fun () ->
        Array.to_list t.slots
        |> List.map (fun s ->
               let p = s.pid in
               if p >= 0 then s.pid <- -1;
               p))
  in
  terminate ~grace pids

let kill_leader t =
  let before = promotions t in
  signal Sys.sigkill (pid t Leader);
  let deadline = Unix.gettimeofday () +. 20. in
  let rec go () =
    if promotions t > before then Ok ()
    else if Unix.gettimeofday () > deadline then
      Error "no promotion within the wait budget"
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()
