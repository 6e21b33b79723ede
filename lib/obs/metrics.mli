(** Named counters and gauges, one atomic cell each: the increment path
    takes no mutex.  A registry created with [~on:false] hands out no-op
    instruments. *)

type counter
type gauge
type registry

val create : ?on:bool -> unit -> registry
(** Fresh registry; [on] defaults to [true]. *)

val counter : registry -> string -> counter
(** Find-or-create by name (idempotent). *)

val gauge : registry -> string -> gauge

val incr : counter -> unit
val add : counter -> int -> unit

val value : counter -> int

val set : gauge -> int -> unit
val gauge_value : gauge -> int

val find_counter : registry -> string -> int option
(** Current value of the counter named, or [None] when nothing has
    registered it — a read-only lookup that, unlike {!counter}, never
    creates a phantom zero-valued instrument (tests and exporters probe
    [swsd.repl.*] on registries that may not replicate). *)

val find_gauge : registry -> string -> int option

val counters : registry -> (string * int) list
(** All counters with their values, sorted by name. *)

val gauges : registry -> (string * int) list
