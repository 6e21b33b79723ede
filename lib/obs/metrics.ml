(** Named counters and gauges.

    Counters are write-hot: the service increments several per request from
    its worker threads.  The process runs one domain of systhreads, so
    those threads never increment in parallel: one atomic cell per
    counter takes every increment with no mutex, and a per-thread shard
    would only add a [Thread.self] lookup to each.

    Gauges are point-in-time values (sessions open, requests in flight) set
    rarely; a single atomic cell as well.

    A registry created with [~on:false] hands out disabled instruments whose
    operations are a single branch — the [--no-obs] configuration. *)

type counter = { c_name : string; c_on : bool; c_cell : int Atomic.t }

type gauge = { g_name : string; g_on : bool; g_cell : int Atomic.t }

type registry = {
  r_on : bool;
  r_mu : Mutex.t;  (** guards registration only, never the hot path *)
  mutable r_counters : counter list;
  mutable r_gauges : gauge list;
}

let create ?(on = true) () =
  { r_on = on; r_mu = Mutex.create (); r_counters = []; r_gauges = [] }

let locked r f =
  Mutex.lock r.r_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.r_mu) f

(** Find-or-create the counter named [name]; registration is idempotent, so
    instruments can be looked up again from anywhere. *)
let counter r name =
  locked r (fun () ->
      match List.find_opt (fun c -> c.c_name = name) r.r_counters with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_on = r.r_on; c_cell = Atomic.make 0 } in
          r.r_counters <- c :: r.r_counters;
          c)

let gauge r name =
  locked r (fun () ->
      match List.find_opt (fun g -> g.g_name = name) r.r_gauges with
      | Some g -> g
      | None ->
          let g = { g_name = name; g_on = r.r_on; g_cell = Atomic.make 0 } in
          r.r_gauges <- g :: r.r_gauges;
          g)

let incr c = if c.c_on then Atomic.incr c.c_cell
let add c n = if c.c_on then ignore (Atomic.fetch_and_add c.c_cell n)
let value c = Atomic.get c.c_cell

let set g v = if g.g_on then Atomic.set g.g_cell v
let gauge_value g = Atomic.get g.g_cell

(* Read-only lookups: assertions and exporters ask "what is
   swsd.repl.lag right now?" without registering a phantom zero-valued
   instrument on a registry that never emitted it. *)
let find_counter r name =
  locked r (fun () -> List.find_opt (fun c -> c.c_name = name) r.r_counters)
  |> Option.map value

let find_gauge r name =
  locked r (fun () -> List.find_opt (fun g -> g.g_name = name) r.r_gauges)
  |> Option.map gauge_value

let by_name name_of l =
  List.sort (fun a b -> compare (name_of a) (name_of b)) l

let counters r =
  locked r (fun () -> r.r_counters)
  |> by_name (fun c -> c.c_name)
  |> List.map (fun c -> (c.c_name, value c))

let gauges r =
  locked r (fun () -> r.r_gauges)
  |> by_name (fun g -> g.g_name)
  |> List.map (fun g -> (g.g_name, gauge_value g))
