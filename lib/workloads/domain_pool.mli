(** Parallel benchmark harness: one worker function per domain behind a
    start barrier, timed start-to-last-join (as in the paper's
    concurrency experiments). *)

val now : unit -> float

(** [run ~domains f] returns the elapsed seconds.  All [domains]
    workers are spawned; the caller parks in [Domain.join] and still
    takes part in every stop-the-world collection, so this is the
    benchmark client harness only.  Library code that works alongside
    its helpers uses [Fptree.Recovery_workers.run]. *)
val run : domains:int -> (int -> unit) -> float

(** [run_cpu ~domains f] returns [(wall, effective)] seconds, where
    [effective] is the maximum per-worker thread-CPU time — equal to
    wall on a dedicated-core machine, and the scheduler-independent
    scaling measure on an oversubscribed one (see the implementation
    comment).  Falls back to wall time when the per-thread clock is
    unavailable. *)
val run_cpu : domains:int -> (int -> unit) -> float * float

(** [slice ~domains ~total d] is worker [d]'s [lo, hi) index range. *)
val slice : domains:int -> total:int -> int -> int * int

val available_domains : unit -> int
