(** Log-bucketed latency histograms: one mutex-guarded set of buckets,
    mergeable snapshots, quantile estimates with bounded relative error (the
    underflow/overflow buckets answer with the exact observed min/max). *)

type t

val create : ?on:bool -> ?lo:float -> ?hi:float -> ?per_decade:int -> string -> t
(** [create name] with defaults for seconds-valued latencies: [lo = 1e-6],
    [hi = 1e3], [per_decade = 10].  With [~on:false] recording is a no-op. *)

val name : t -> string

val observe : t -> float -> unit
(** Record one value; thread-safe. *)

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

val snapshot : t -> snapshot
(** Point-in-time copy. *)

val merge : snapshot -> snapshot -> snapshot
(** Combine snapshots of the same shape; associative and commutative.
    @raise Invalid_argument on mismatched bucket shapes. *)

val snapshot_bucket : snapshot -> float -> int
(** The bucket an exact value falls into, for comparing estimates against
    an oracle. *)

val quantile : snapshot -> float -> float
(** Estimate the [q]-quantile ([0..1]); [0.0] on an empty snapshot,
    exact max for [q >= 1.0]. *)

val mean : snapshot -> float
