(** Group commit coordinator.  See group_commit.mli for the contract. *)

type policy = {
  max_batch : int;
  max_linger : float;
  flush_on_idle : bool;
}

let default_policy = { max_batch = 64; max_linger = 0.002; flush_on_idle = true }

type status = Pending | Done | Failed of exn

type ticket = {
  tk_mu : Mutex.t;
  tk_cond : Condition.t;
  mutable status : status;
}

type 'a entry = {
  record : 'a;
  on_durable : (unit -> unit) option;
  ticket : ticket;
}

type 'a lane = {
  mutable pending : 'a entry list;  (** newest first *)
  mutable npending : int;
  mutable oldest : float;  (** submit time of the oldest pending entry *)
  mutable rested : float;  (** when the lane's last flush completed *)
  mutable expected : int;
      (** self-calibrating idle-departure threshold: the size the next
          batch should reach at saturation — what was already pending when
          the last flush completed plus that flush's waiters, all of whom
          will resubmit if they are still writing *)
  mutable flushing : bool;  (** a batch from this lane is being written *)
  mutable force : bool;  (** a drain wants this lane out now *)
}

type 'a t = {
  mu : Mutex.t;
  wake : Condition.t;
      (** work arrived / drain / stop / a tick elapsed — wakes the flusher *)
  settled : Condition.t;  (** a lane finished a flush — wakes drainers *)
  alarm : Condition.t;  (** a tick was asked for — wakes the alarm thread *)
  lanes : (string, 'a lane) Hashtbl.t;
  policy : policy;
  now : unit -> float;
  sleep : float -> unit;
  flush : path:string -> 'a list -> unit;
  on_flush :
    (path:string -> batch:int -> linger:float -> seconds:float -> unit) option;
  mutable submitted : int;  (** total submits ever; the idle detector *)
  mutable ticks_asked : int;  (** ticks the flusher has asked the alarm for *)
  mutable ticks_done : int;  (** the newest asked tick that has elapsed *)
  mutable alarm_started : bool;
  mutable stopping : bool;
  mutable flusher : Thread.t option;
}

exception Stopped

let () =
  Printexc.register_printer (function
    | Stopped -> Some "group commit stopped (server shutting down)"
    | _ -> None)

(* --- tickets --------------------------------------------------------------- *)

let fresh_ticket status =
  { tk_mu = Mutex.create (); tk_cond = Condition.create (); status }

let settle tk status =
  Mutex.lock tk.tk_mu;
  tk.status <- status;
  Condition.broadcast tk.tk_cond;
  Mutex.unlock tk.tk_mu

let await tk =
  Mutex.lock tk.tk_mu;
  while match tk.status with Pending -> true | _ -> false do
    Condition.wait tk.tk_cond tk.tk_mu
  done;
  let r = match tk.status with
    | Done -> Ok ()
    | Failed e -> Error e
    | Pending -> assert false
  in
  Mutex.unlock tk.tk_mu;
  r

(* --- lanes ----------------------------------------------------------------- *)

let lane_of t path =
  match Hashtbl.find_opt t.lanes path with
  | Some l -> l
  | None ->
      let l =
        {
          pending = [];
          npending = 0;
          oldest = 0.0;
          rested = 0.0;
          expected = 0;
          flushing = false;
          force = false;
        }
      in
      Hashtbl.add t.lanes path l;
      l

(* The alarm's cadence while a lane lingers: a fraction of the linger,
   floored so a tiny linger does not spin and capped so a huge linger
   (deterministic tests) still notices idleness and drains fast.  A tick
   is the idle detector's window and the granularity of the linger bound;
   every other departure happens on the submit, drain or stop that
   ripened the lane. *)
let tick t =
  Float.max 5e-5 (Float.min (t.policy.max_linger /. 4.0) 2e-3)

(* A lane its count alone ripens: [max_batch] records, or a fully
   regrouped bus — every waiter from the last flush back aboard
   ([expected], which the next flush recalibrates), so there is nobody
   left to linger for and waiting to "notice" that only adds dead time
   to every cycle.  Bootstrap ([expected] still 0) falls through to the
   idle rule of {!collect}.  Both regroup heuristics are gated on
   [flush_on_idle]: with it off, only max_batch, linger and drain ripen a
   lane — the deterministic contract. *)
let full t l =
  l.npending >= t.policy.max_batch
  || (t.policy.flush_on_idle && l.expected > 0 && l.npending >= l.expected)

(* Ripe lanes, sorted by path for deterministic flush order.  [idle_mark]
   (the [submitted] count one tick ago) makes pausing submission streams
   ripen short batches when the policy allows it.  Called with [t.mu]
   held. *)
let collect t ~idle_mark =
  let now = t.now () in
  let idle =
    match idle_mark with
    | Some m -> t.policy.flush_on_idle && t.submitted = m
    | None -> false
  in
  Hashtbl.fold
    (fun path l acc ->
      if l.npending = 0 then begin
        l.force <- false;
        acc
      end
      else if
        full t l
        (* the linger clock starts at the later of the oldest record and
           the last flush's completion: records that queued {e during} a
           flush have already waited it out, but departing the instant it
           completes would strand the flushed batch's returning writers on
           the next bus — the linger is exactly the regroup window that
           keeps steady-state batches full (and throughput ~W per fsync)
           instead of splitting the writers into two half-full cohorts *)
        || now -. Float.max l.oldest l.rested >= t.policy.max_linger
        || l.force || t.stopping
        (* idle departure is gated on a full regroup: a pause in
           submissions only means "nobody else is coming" once the last
           batch's returning writers are back aboard — otherwise a
           scheduling hiccup while they wake would split a steady writer
           pool into two half-full cohorts for good.  A genuinely shrunken
           pool never refills [expected]; the linger bound above departs
           the bus anyway and the next flush recalibrates it. *)
        || (idle && l.npending >= l.expected)
      then (path, l) :: acc
      else acc)
    t.lanes []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let has_pending t =
  Hashtbl.fold (fun _ l b -> b || l.npending > 0) t.lanes false

(* Write one lane's batch.  Runs with [t.mu] released.  On success the
   [on_durable] callbacks run in submission order before any ticket
   settles, so a waiter observing [Ok] knows every earlier record in its
   batch is durable {e and} published. *)
let write_batch t path ~oldest batch =
  let t0 = t.now () in
  match t.flush ~path (List.map (fun e -> e.record) batch) with
  | () ->
      (match t.on_flush with
      | Some f ->
          f ~path ~batch:(List.length batch) ~linger:(t0 -. oldest)
            ~seconds:(t.now () -. t0)
      | None -> ());
      List.iter
        (fun e ->
          match (match e.on_durable with Some f -> f () | None -> ()) with
          | () -> settle e.ticket Done
          | exception ex ->
              (* the record is durable but its publish hook died; the
                 waiter must not ack what it cannot prove was published *)
              settle e.ticket (Failed ex))
        batch
  | exception e -> List.iter (fun e' -> settle e'.ticket (Failed e)) batch

(* Flush the given lanes one at a time.  Called and returns with [t.mu]
   held. *)
let flush_lanes t ready =
  List.iter
    (fun (path, lane) ->
      let batch = List.rev lane.pending and oldest = lane.oldest in
      lane.pending <- [];
      lane.npending <- 0;
      lane.force <- false;
      lane.flushing <- true;
      Mutex.unlock t.mu;
      write_batch t path ~oldest batch;
      Mutex.lock t.mu;
      lane.flushing <- false;
      lane.rested <- t.now ();
      lane.expected <- lane.npending + List.length batch;
      Condition.broadcast t.settled)
    ready

(* The alarm thread times the flusher's ticks with the injected [sleep]
   (so fake clocks advance exactly as they did when the flusher slept
   itself) and signals [wake] when one elapses.  A tick asked for while it
   sleeps out an older one, which the flusher stopped waiting for, gets a
   full tick of its own.  It is not joined: {!stop} must not wait out a
   tick, and the thread leaves at the end of the one in progress. *)
let alarm_loop t =
  Mutex.lock t.mu;
  while not t.stopping do
    if t.ticks_done < t.ticks_asked then begin
      let asked = t.ticks_asked in
      Mutex.unlock t.mu;
      t.sleep (tick t);
      Mutex.lock t.mu;
      t.ticks_done <- asked;
      Condition.signal t.wake
    end
    else Condition.wait t.alarm t.mu
  done;
  Mutex.unlock t.mu

(* Nothing is ripe: linger until something is.  A submit that can ripen
   a lane, a drain and a stop signal [wake], so the flusher re-collects
   on each of them and a lane leaves the moment it ripens — a regrouped
   bus as its last writer boards — instead of at the end of a tick.
   When nobody boards, the tick ends the linger and a pause in
   submissions counts as ripeness when the policy says so.  Called and
   returns with [t.mu] held; the result may be empty (the tick elapsed,
   nothing ripened). *)
let linger t =
  let mark = t.submitted in
  t.ticks_asked <- t.ticks_asked + 1;
  let asked = t.ticks_asked in
  if not t.alarm_started then begin
    t.alarm_started <- true;
    ignore (Thread.create alarm_loop t)
  end;
  Condition.signal t.alarm;
  let rec wait () =
    Condition.wait t.wake t.mu;
    if t.ticks_done >= asked then collect t ~idle_mark:(Some mark)
    else match collect t ~idle_mark:None with [] -> wait () | ready -> ready
  in
  wait ()

let flusher_loop t =
  Mutex.lock t.mu;
  let running = ref true in
  while !running do
    while (not t.stopping) && not (has_pending t) do
      Condition.wait t.wake t.mu
    done;
    if t.stopping && not (has_pending t) then running := false
    else
      flush_lanes t
        (match collect t ~idle_mark:None with [] -> linger t | ready -> ready)
  done;
  Mutex.unlock t.mu

(* --- public API ------------------------------------------------------------ *)

let create ?(policy = default_policy) ?(now = Unix.gettimeofday)
    ?(sleep = Thread.delay) ~flush ?on_flush () =
  let t =
    {
      mu = Mutex.create ();
      wake = Condition.create ();
      settled = Condition.create ();
      alarm = Condition.create ();
      lanes = Hashtbl.create 8;
      policy =
        { policy with max_batch = max 1 policy.max_batch;
          max_linger = Float.max 0.0 policy.max_linger };
      now;
      sleep;
      flush;
      on_flush;
      submitted = 0;
      ticks_asked = 0;
      ticks_done = 0;
      alarm_started = false;
      stopping = false;
      flusher = None;
    }
  in
  t.flusher <- Some (Thread.create flusher_loop t);
  t

let submit t ~path ?on_durable record =
  Mutex.lock t.mu;
  let lane = lane_of t path in
  let tk =
    if t.stopping then fresh_ticket (Failed Stopped)
    else begin
      let tk = fresh_ticket Pending in
      lane.pending <- { record; on_durable; ticket = tk } :: lane.pending;
      if lane.npending = 0 then lane.oldest <- t.now ();
      lane.npending <- lane.npending + 1;
      t.submitted <- t.submitted + 1;
      (* wake the flusher only when this record can ripen a lane: a first
         record (the flusher may be idle, and a lone writer's lane is full
         on it) or one that fills its lane; the timed rules are the
         alarm's *)
      if lane.npending = 1 || full t lane then Condition.signal t.wake;
      tk
    end
  in
  Mutex.unlock t.mu;
  tk

let quiescent t ~path =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.lanes path with
    | None -> true
    | Some l -> l.npending = 0 && not l.flushing
  in
  Mutex.unlock t.mu;
  r

let drain t ~path =
  Mutex.lock t.mu;
  (match Hashtbl.find_opt t.lanes path with
  | None -> ()
  | Some l ->
      l.force <- true;
      Condition.signal t.wake;
      while l.npending > 0 || l.flushing do
        Condition.wait t.settled t.mu
      done);
  Mutex.unlock t.mu

let drain_all t =
  Mutex.lock t.mu;
  Hashtbl.iter (fun _ l -> l.force <- true) t.lanes;
  Condition.signal t.wake;
  let busy () =
    Hashtbl.fold (fun _ l b -> b || l.npending > 0 || l.flushing) t.lanes false
  in
  while busy () do
    Condition.wait t.settled t.mu
  done;
  Mutex.unlock t.mu

let stop t =
  Mutex.lock t.mu;
  if t.stopping then Mutex.unlock t.mu
  else begin
    t.stopping <- true;
    Condition.signal t.wake;
    Condition.signal t.alarm;
    let th = t.flusher in
    t.flusher <- None;
    Mutex.unlock t.mu;
    Option.iter Thread.join th
  end
