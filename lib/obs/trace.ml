(** Request tracing: spans with named phases over a monotonic clock, kept
    in a fixed-size ring buffer of recent traces.

    A worker thread opens a span per request ({!start}) and passes it
    explicitly to every site that records a phase ({!add_phase},
    {!phase}).  {!finish} stamps the total and pushes the completed trace
    into the ring under a mutex; recording durations on the span itself
    needs no lock because a span belongs to one request.

    The ring holds the most recent [capacity] traces; older ones are
    overwritten.  Disabled tracers ([~on:false]) hand out a dead span and
    every operation short-circuits. *)

type phase = { ph_name : string; ph_seconds : float }

type trace = {
  tr_label : string;  (** request verb: [@open], [command], ... *)
  tr_detail : string;  (** variant or free-form context *)
  tr_start : float;  (** wall-clock timestamp *)
  tr_seconds : float;  (** total duration (monotonic clock) *)
  tr_status : string;  (** ok | err | busy *)
  tr_phases : phase list;  (** in recording order *)
}

type span = {
  sp_live : bool;
  sp_label : string;
  sp_detail : string;
  sp_wall : float;
  sp_t0 : float;
  mutable sp_phases : phase list;  (** reversed *)
}

type t = {
  on : bool;
  clock : unit -> float;  (** monotonic; durations only *)
  capacity : int;
  mu : Mutex.t;  (** guards [ring] and [next] *)
  ring : trace option array;
  mutable next : int;
}

let none =
  {
    sp_live = false;
    sp_label = "";
    sp_detail = "";
    sp_wall = 0.0;
    sp_t0 = 0.0;
    sp_phases = [];
  }

let create ?(on = true) ?(capacity = 64) ?(clock = Clock.now) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    on;
    clock;
    capacity;
    mu = Mutex.create ();
    ring = Array.make capacity None;
    next = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let start t ~label ?(detail = "") () =
  if not t.on then none
  else
    {
      sp_live = true;
      sp_label = label;
      sp_detail = detail;
      sp_wall = Clock.wall ();
      sp_t0 = t.clock ();
      sp_phases = [];
    }

let add_phase sp name seconds =
  if sp.sp_live then
    sp.sp_phases <- { ph_name = name; ph_seconds = seconds } :: sp.sp_phases

(** Time [f] as a phase of [sp] (still recorded if [f] raises). *)
let phase t sp name f =
  if not sp.sp_live then f ()
  else begin
    let t0 = t.clock () in
    Fun.protect
      ~finally:(fun () -> add_phase sp name (t.clock () -. t0))
      f
  end

(** Close the span: push the completed trace into the ring. *)
let finish t sp ~status =
  if sp.sp_live then begin
    let tr =
      {
        tr_label = sp.sp_label;
        tr_detail = sp.sp_detail;
        tr_start = sp.sp_wall;
        tr_seconds = t.clock () -. sp.sp_t0;
        tr_status = status;
        tr_phases = List.rev sp.sp_phases;
      }
    in
    locked t (fun () ->
        t.ring.(t.next mod t.capacity) <- Some tr;
        t.next <- t.next + 1)
  end

(** The retained traces, newest first. *)
let recent t =
  locked t (fun () ->
      let n = min t.next t.capacity in
      List.init n (fun i ->
          t.ring.((t.next - 1 - i + t.capacity) mod t.capacity))
      |> List.filter_map Fun.id)
