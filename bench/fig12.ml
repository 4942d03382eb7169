(** Figure 12: impact of the trees on the prototype database —
    (a) TATP read-only throughput vs SCM latency, 8 clients;
    (b) restart (recovery) time vs SCM latency. *)

let latencies = [ 160.; 450.; 650. ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Figure 12b's FPTree restart in fast mode (no latency injection) with
   one worker and with every worker it may use, alternated in one
   process so both sides see the same heap and host load.  Besides the
   time, count the minor collections per restart: they stop every
   domain, and those [Array.make] forces (arrays over 256 words around
   a young value) are pure overhead. *)
let restart_workers () =
  let subscribers = Env.scaled 200_000 in
  let workers = min 4 (Workloads.Domain_pool.available_domains ()) in
  Env.parallel ~latency_ns:0. ();
  let db = Dbproto.Tatp.populate ~subscribers Dbproto.Index.FPTree in
  let restart w =
    Gc.full_major ();
    let mc0 = (Gc.quick_stat ()).Gc.minor_collections in
    let (_, secs), forced =
      Workloads.Forced_minors.count (fun () ->
          Dbproto.Tatp.restart ~workers:w db)
    in
    (secs, (Gc.quick_stat ()).Gc.minor_collections - mc0, forced)
  in
  let rounds = 9 in
  let runs =
    List.init rounds (fun i ->
        if i land 1 = 0 then
          let one = restart 1 in
          (one, restart workers)
        else
          let n = restart workers in
          (restart 1, n))
  in
  Report.heading
    (Printf.sprintf
       "Figure 12b: FPTree restart, 1 vs %d workers, %d subscribers \
        (fast mode, %d alternated rounds)"
       workers subscribers rounds);
  let row label side =
    let sel = List.map side runs in
    let secs = median (List.map (fun (s, _, _) -> s) sel) in
    Printf.printf
      "  %-10s median %7.1f ms   minor GCs/restart %5.1f   forced by make_vect %d\n"
      label (secs *. 1000.)
      (float_of_int (List.fold_left (fun a (_, m, _) -> a + m) 0 sel)
       /. float_of_int rounds)
      (List.fold_left (fun a (_, _, f) -> a + f) 0 sel);
    secs
  in
  let t1 = row "1 worker" fst in
  let tn = row (Printf.sprintf "%d workers" workers) snd in
  let forced_n = List.fold_left (fun a (_, (_, _, f)) -> a + f) 0 runs in
  (* Machine-read by tools/bench_check.sh. *)
  Printf.printf "  fig12_restart_speedup=%.2f (not gated: host scheduling)\n"
    (t1 /. tn);
  Printf.printf "  fig12_restart_forced_make_vect=%d\n" forced_n;
  flush stdout

let run () =
  let subscribers = Env.scaled 20_000 in
  let n_tx = Env.scaled 100_000 in
  let clients = max 2 (Workloads.Domain_pool.available_domains ()) in
  Report.heading
    (Printf.sprintf
       "Figure 12a: TATP throughput (tx/s), %d subscribers, %d clients"
       subscribers clients);
  let kinds = Dbproto.Index.all_kinds in
  let names = List.map Dbproto.Index.kind_name kinds in
  let results =
    List.map
      (fun kind ->
        ( Dbproto.Index.kind_name kind,
          List.map
            (fun lat ->
              Env.parallel ~latency_ns:lat ();
              let db = Dbproto.Tatp.populate ~subscribers kind in
              let tps = Dbproto.Tatp.run_benchmark ~clients ~n_tx db in
              let _, restart_secs = Dbproto.Tatp.restart ~workers:clients db in
              (lat, (tps, restart_secs)))
            latencies ))
      kinds
  in
  Report.table ~rows:names
    ~headers:(List.map (fun l -> string_of_int (int_of_float l)) latencies)
    ~cell:(fun name h ->
      let lat = float_of_string h in
      Report.f1 (fst (List.assoc lat (List.assoc name results))));
  Report.heading "Figure 12b: database restart time (ms) vs SCM latency";
  Report.table ~rows:names
    ~headers:(List.map (fun l -> string_of_int (int_of_float l)) latencies)
    ~cell:(fun name h ->
      let lat = float_of_string h in
      Report.ms (snd (List.assoc lat (List.assoc name results))));
  Report.note
    "expected shape: FPTree within ~10%% of the transient STXTree's \
     throughput and much faster to restart than an STXTree rebuild; wBTree \
     restarts near-instantly but pays the largest throughput overhead";
  restart_workers ()

