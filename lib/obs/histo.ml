(** Log-bucketed histograms for latency-style measurements.

    Values are bucketed on a logarithmic grid ([per_decade] buckets per
    power of ten between [lo] and [hi], plus an underflow and an overflow
    bucket), so quantile estimates carry a bounded {e relative} error — the
    right trade for latencies spanning microseconds to seconds.  Recording
    takes the histogram's one mutex (the process runs one domain of
    systhreads, so recorders never run in parallel), and {!snapshot} copies
    it into an immutable, mergeable value: snapshots of the same shape
    form a commutative monoid under {!merge}, so per-process histograms
    can be combined across scrapes or servers.

    Quantiles are read from a snapshot: the estimate for an interior bucket
    is its geometric midpoint; the underflow and overflow buckets answer
    with the exact observed minimum and maximum, so [quantile s 1.0] is the
    true max. *)

type t = {
  h_name : string;
  h_on : bool;
  h_lo : float;  (** lower edge of the first interior bucket *)
  h_hi : float;  (** upper edge of the last interior bucket *)
  h_per_decade : int;
  h_mu : Mutex.t;  (** guards the fields below *)
  h_buckets : int array;
      (** underflow (0), the interior buckets, overflow (last) *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

(** [create name] — value domain defaults to seconds: 1µs .. 1000s with 10
    buckets per decade (≈26% bucket width). *)
let create ?(on = true) ?(lo = 1e-6) ?(hi = 1e3) ?(per_decade = 10) name =
  if not (lo > 0.0 && hi > lo && per_decade > 0) then
    invalid_arg "Histo.create: need 0 < lo < hi and per_decade > 0";
  let interior =
    int_of_float (ceil (Float.log10 (hi /. lo) *. float_of_int per_decade))
  in
  {
    h_name = name;
    h_on = on;
    h_lo = lo;
    h_hi = hi;
    h_per_decade = per_decade;
    h_mu = Mutex.create ();
    h_buckets = Array.make (interior + 2) 0;
    h_count = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
  }

let name t = t.h_name

(* The bucket [v] falls into on a grid of [n] buckets. *)
let bucket ~lo ~hi ~per_decade n v =
  if v < lo then 0
  else if v >= hi then n - 1
  else
    let i = 1 + int_of_float (Float.log10 (v /. lo) *. float_of_int per_decade) in
    (* float rounding at bucket edges can land one off; clamp to interior *)
    max 1 (min (n - 2) i)

let observe t v =
  if t.h_on then begin
    let i =
      bucket ~lo:t.h_lo ~hi:t.h_hi ~per_decade:t.h_per_decade
        (Array.length t.h_buckets) v
    in
    Mutex.lock t.h_mu;
    t.h_buckets.(i) <- t.h_buckets.(i) + 1;
    t.h_count <- t.h_count + 1;
    t.h_sum <- t.h_sum +. v;
    if v < t.h_min then t.h_min <- v;
    if v > t.h_max then t.h_max <- v;
    Mutex.unlock t.h_mu
  end

(* --- snapshots ------------------------------------------------------------ *)

type snapshot = {
  s_lo : float;
  s_hi : float;
  s_per_decade : int;
  s_count : int;
  s_sum : float;
  s_min : float;  (** [infinity] when empty *)
  s_max : float;  (** [neg_infinity] when empty *)
  s_buckets : int array;
}

let snapshot t =
  Mutex.protect t.h_mu (fun () ->
      {
        s_lo = t.h_lo;
        s_hi = t.h_hi;
        s_per_decade = t.h_per_decade;
        s_count = t.h_count;
        s_sum = t.h_sum;
        s_min = t.h_min;
        s_max = t.h_max;
        s_buckets = Array.copy t.h_buckets;
      })

(** Combine two snapshots of the same shape (same [lo]/[hi]/[per_decade]).
    Associative and commutative, with the empty snapshot as identity. *)
let merge a b =
  if
    a.s_lo <> b.s_lo || a.s_hi <> b.s_hi || a.s_per_decade <> b.s_per_decade
    || Array.length a.s_buckets <> Array.length b.s_buckets
  then invalid_arg "Histo.merge: incompatible bucket shapes";
  {
    a with
    s_count = a.s_count + b.s_count;
    s_sum = a.s_sum +. b.s_sum;
    s_min = Float.min a.s_min b.s_min;
    s_max = Float.max a.s_max b.s_max;
    s_buckets = Array.mapi (fun i n -> n + b.s_buckets.(i)) a.s_buckets;
  }

(* The bucket an exact value of this snapshot's shape falls into, as
   {!observe} places it, so tests can compare estimate vs oracle
   bucket-wise. *)
let snapshot_bucket s v =
  bucket ~lo:s.s_lo ~hi:s.s_hi ~per_decade:s.s_per_decade
    (Array.length s.s_buckets) v

(** Quantile estimate for [q] in [0..1]: geometric midpoint of the bucket
    holding the rank-⌈q·count⌉ value; the underflow/overflow buckets answer
    with the observed min/max.  [0.0] on an empty snapshot. *)
let quantile s q =
  if s.s_count = 0 then 0.0
  else if q >= 1.0 then s.s_max
  else
    let rank = max 1 (int_of_float (ceil (q *. float_of_int s.s_count))) in
    let n = Array.length s.s_buckets in
    let rec walk i cum =
      if i >= n then s.s_max
      else
        let cum = cum + s.s_buckets.(i) in
        if cum >= rank then
          if i = 0 then s.s_min
          else if i = n - 1 then s.s_max
          else
            s.s_lo
            *. Float.pow 10.0
                 ((float_of_int i -. 0.5) /. float_of_int s.s_per_decade)
        else walk (i + 1) cum
    in
    walk 0 0

let mean s = if s.s_count = 0 then 0.0 else s.s_sum /. float_of_int s.s_count
