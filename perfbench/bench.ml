(* One measurement process: [bench.exe WORKLOAD MODE SEED SECONDS].

   MODE is [e2e] (untraced: set-up, timed closed loop, restart,
   end-to-end metrics), [base] (untraced loop only: the denominator of
   trace.overhead_ratio) or [traced] (per-layer metrics).  Prints one
   JSON object on its last line; perfbench/run.py aggregates several
   processes into the benchmark's result. *)

let workloads =
  [ ("kv-zipf-read", (Wl_kv.e2e, Wl_kv.base, Wl_kv.traced));
    ("fixed-mixed", (Wl_mixed.e2e, Wl_mixed.base, Wl_mixed.traced));
    ("tatp-restart", (Wl_tatp.e2e, Wl_tatp.base, Wl_tatp.traced)) ]

let () =
  match Sys.argv with
  | [| _; workload; mode; seed; seconds |] -> (
    let seed = int_of_string seed and seconds = float_of_string seconds in
    Common.fast_mode ();
    let run =
      match (List.assoc_opt workload workloads, mode) with
      | Some (e2e, _, _), "e2e" -> Some (e2e, false)
      | Some (_, base, _), "base" -> Some (base, false)
      | Some (_, _, traced), "traced" -> Some (traced, true)
      | _ -> None
    in
    match run with
    | Some (f, host_metrics) ->
      let r = f ~seed ~seconds in
      let hm, line = Common.host () in
      Common.print_result
        { r with
          metrics = (if host_metrics then r.metrics @ hm else r.metrics);
          notes = line :: r.notes }
    | _ ->
      prerr_endline ("unknown workload or mode: " ^ workload ^ " " ^ mode);
      exit 2)
  | _ ->
    prerr_endline "usage: bench.exe WORKLOAD e2e|base|traced SEED SECONDS";
    exit 2
