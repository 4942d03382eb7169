(** Global on/off switch for application-level observability (op
    latency histograms, flight-recorder events, span recording on warm
    paths).

    The SCM simulator's own instrumentation is governed by
    [Scm.Config]'s switches; this gate covers the layers above the
    simulator (kvstore / dbproto op latencies, the flight recorder)
    that have no simulator mode of their own.  Hot paths read it
    directly: {!enabled} is one load of a global [bool ref]. *)

let flag = ref false

let[@inline] enabled () = !flag

let set_enabled b = flag := b
