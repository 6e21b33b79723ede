(** Dependency-free observability: atomic counters and gauges
    ({!Metrics}), log-bucketed latency histograms with mergeable snapshots
    ({!Histo}), request tracing over monotonic clocks ({!Trace}), and
    stable text/JSON exports ({!Export}) — tied together by the registry
    ({!Registry}, included here: [Obs.create], [Obs.noop], [Obs.counter],
    [Obs.snapshot], ...).

    The whole library depends only on the unix and threads libraries that
    ship with the compiler and on bechamel's monotonic clock (the one
    stub {!Clock.now} reads); instrumented code takes an [Obs.t] and pays a
    load-and-branch when it was created disabled ([Obs.noop]). *)

module Clock = Clock
module Metrics = Metrics
module Histo = Histo
module Trace = Trace
module Export = Export
include Registry
