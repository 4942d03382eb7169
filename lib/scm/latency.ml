(** Calibrated busy-wait used for optional latency injection.

    When [Config.switches.delay_injection] is set, every simulated SCM
    cache miss spins for (scm latency - dram latency) nanoseconds, so
    end-to-end wall-clock runs feel the latency knob directly, like the
    paper's emulation platform.  The spin loop is calibrated once
    against the monotonic clock ([Obs.Clock]; the wall clock can step
    mid-calibration and skew every injected delay afterwards). *)

let calibrate () =
  let iters = 50_000_000 in
  let t0 = Obs.Clock.now_s () in
  let acc = ref 0 in
  for i = 1 to iters do
    acc := !acc lxor i
  done;
  let t1 = Obs.Clock.now_s () in
  ignore (Sys.opaque_identity !acc);
  let ns = (t1 -. t0) *. 1e9 in
  if ns <= 0. then 1.0 else float_of_int iters /. ns

(* Not a [lazy]: concurrent first waits from several domains would
   race on forcing it ([Lazy.force] raises [Undefined] from the loser).
   A mutex serializes calibration; the unsynchronized fast-path read of
   the word-sized float is a benign race (either 0.0, taking the slow
   path, or the calibrated value). *)
let calibration = ref 0.
let calibration_lock = Mutex.create ()

let spins_per_ns () =
  let v = !calibration in
  if v > 0. then v
  else begin
    Mutex.lock calibration_lock;
    let v =
      match !calibration with
      | v when v > 0. -> v
      | _ ->
        let v = calibrate () in
        calibration := v;
        v
    in
    Mutex.unlock calibration_lock;
    v
  end

let busy_wait_ns ns =
  if ns > 0. then begin
    let spins = int_of_float (ns *. spins_per_ns ()) in
    let acc = ref 0 in
    for i = 1 to spins do
      acc := !acc lxor i
    done;
    ignore (Sys.opaque_identity !acc)
  end

(** Injected on each SCM read miss. *)
let on_scm_read_miss () =
  let c = Config.current in
  if Config.switches.delay_injection then
    busy_wait_ns (c.scm_read_ns -. c.dram_read_ns)

(** Injected on each SCM line write-back. *)
let on_scm_write_back () =
  let c = Config.current in
  if Config.switches.delay_injection then
    busy_wait_ns (c.scm_write_ns -. c.dram_read_ns)
