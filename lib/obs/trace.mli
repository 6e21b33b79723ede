(** Request tracing: per-request spans with named phases over a monotonic
    clock, retained in a fixed-size lock-protected ring buffer.  A span is
    a value the request passes to wherever it records a phase. *)

type phase = { ph_name : string; ph_seconds : float }

type trace = {
  tr_label : string;
  tr_detail : string;
  tr_start : float;  (** wall-clock timestamp *)
  tr_seconds : float;
  tr_status : string;
  tr_phases : phase list;  (** in recording order *)
}

type span
type t

val create : ?on:bool -> ?capacity:int -> ?clock:(unit -> float) -> unit -> t
(** [capacity] traces are retained (default 64); [clock] must be monotonic
    (default {!Clock.now}).  With [~on:false] every operation is a no-op. *)

val none : span
(** A dead span: every operation on it is a no-op.  For work that runs
    outside any request, such as a replication snapshot. *)

val start : t -> label:string -> ?detail:string -> unit -> span
(** Open a span (a dead one when the tracer is off). *)

val add_phase : span -> string -> float -> unit

val phase : t -> span -> string -> (unit -> 'a) -> 'a
(** Time the thunk as a named phase (recorded even if it raises). *)

val finish : t -> span -> status:string -> unit
(** Stamp the total duration and push the trace into the ring. *)

val recent : t -> trace list
(** Retained traces, newest first. *)
