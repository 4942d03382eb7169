(** Parallel benchmark harness: run one function per domain and return
    the elapsed time of the slowest (all domains start together on a
    barrier, as in the paper's concurrency experiments). *)

(* Monotonic seconds: an NTP step mid-benchmark must not corrupt the
   elapsed measurement. *)
let now () = Obs.Clock.now_s ()

(** [run ~domains f] spawns [domains] workers executing [f worker_id]
    after a start barrier; returns elapsed seconds (start-to-last-join).
    The caller parks in [Domain.join] meanwhile: fine for a benchmark's
    clients, but a parked domain still takes part in every
    stop-the-world collection, so library code that works alongside its
    helpers uses [Fptree.Recovery_workers.run] instead. *)
let run ~domains f =
  if domains < 1 then invalid_arg "Domain_pool.run";
  if domains = 1 then begin
    let t0 = now () in
    f 0;
    now () -. t0
  end
  else begin
    let ready = Atomic.make 0 in
    let go = Atomic.make false in
    let worker d () =
      Atomic.incr ready;
      while not (Atomic.get go) do
        Domain.cpu_relax ()
      done;
      f d
    in
    let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    let t0 = now () in
    Atomic.set go true;
    List.iter Domain.join ds;
    now () -. t0
  end

(** [run_cpu ~domains f] is {!run} but also measures each worker's
    {e thread CPU time} ([CLOCK_THREAD_CPUTIME_ID]) across its slice
    and returns [(wall, effective)] where [effective] is the maximum
    per-worker CPU seconds.

    On a machine with a dedicated core per domain, wall-clock time of
    the slowest worker {e is} its CPU time, so [effective] equals
    [wall] there.  On an oversubscribed host (CI containers with fewer
    cores than domains) wall-clock conflates the scheduler's
    time-slicing with the algorithm's scaling; [effective] removes the
    time the worker spent merely descheduled while still charging
    every spin, abort, retry, and cache miss the concurrency protocol
    actually costs.  Falls back to wall time per worker when the clock
    is unavailable ({!Scm.Cputime.available}). *)
let run_cpu ~domains f =
  if domains < 1 then invalid_arg "Domain_pool.run_cpu";
  if domains = 1 then begin
    let c0 = Scm.Cputime.thread_seconds () in
    let t0 = now () in
    f 0;
    (now () -. t0, Scm.Cputime.thread_seconds () -. c0)
  end
  else begin
    let ready = Atomic.make 0 in
    let go = Atomic.make false in
    let cpu = Array.init domains (fun _ -> Atomic.make 0) in
    let worker d () =
      Atomic.incr ready;
      while not (Atomic.get go) do
        Domain.cpu_relax ()
      done;
      (* The clock is per-thread: both reads must happen on this
         domain.  Spin-waiting on the barrier burns CPU time, so the
         baseline is read after release. *)
      let c0 = Scm.Cputime.thread_seconds () in
      f d;
      let dc = Scm.Cputime.thread_seconds () -. c0 in
      Atomic.set cpu.(d) (int_of_float (dc *. 1e9))
    in
    let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    let t0 = now () in
    Atomic.set go true;
    List.iter Domain.join ds;
    let wall = now () -. t0 in
    let eff = ref 0. in
    Array.iter
      (fun c -> eff := Float.max !eff (float_of_int (Atomic.get c) *. 1e-9))
      cpu;
    (wall, !eff)
  end

(** Partition [total] items across [domains]: worker [d] handles
    indices [fst..snd) of its slice. *)
let slice ~domains ~total d =
  let per = total / domains in
  let lo = d * per in
  let hi = if d = domains - 1 then total else lo + per in
  (lo, hi)

let available_domains () = max 1 (Domain.recommended_domain_count ())
