(* Persist/flush accounting on a fixed workload, for quantifying the
   flush-reduction fixes that came out of the pmcheck analyzer (meta
   config batching in create/recover-init, skip-null + batched
   micro-log retirement).  Prints the simulator's counter deltas for
   the create phase and for a fixed single-threaded mixed workload at
   m = 8 so that runs of different revisions are directly comparable.

   Each totals line is followed by its per-component breakdown from
   [Obs.Attrib], the matrix the totals are sums of: which structure —
   micro-log, bitmap commits, fingerprints, KV cells, allocator
   metadata, tree meta — caused the persists, so a flush regression
   names its culprit directly instead of showing up as an opaque
   total. *)

module A = Obs.Attrib

(* Matrix persist/flush totals per component, for delta printing. *)
let comp_row comp = (A.comp_total ~comp A.q_persists, A.comp_total ~comp A.q_flushes)

let matrix_snapshot () = Array.init A.n_comps comp_row

let pr_breakdown before after =
  Array.iteri
    (fun comp (p0, f0) ->
      let p1, f1 = after.(comp) in
      if p1 - p0 > 0 || f1 - f0 > 0 then
        Printf.printf "  %-12s persists=%-6d flushes=%d\n" A.comp_name.(comp)
          (p1 - p0) (f1 - f0))
    before

let () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Config.set_stats true;
  let a = Pmem.Palloc.create ~size:(32 * 1024 * 1024) () in
  let s0 = Scm.Stats.snapshot () in
  let m0 = matrix_snapshot () in
  let config =
    { Fptree.Tree.fptree_config with
      Fptree.Tree.m = 8; Fptree.Tree.inner_keys = 16;
      Fptree.Tree.use_groups = true; Fptree.Tree.group_size = 4 }
  in
  let t = Fptree.Fixed.create ~config a in
  let s1 = Scm.Stats.snapshot () in
  let m1 = matrix_snapshot () in
  for i = 0 to 511 do
    ignore (Fptree.Fixed.insert t i i)
  done;
  for i = 0 to 127 do
    ignore (Fptree.Fixed.update t (i * 4) (i + 1))
  done;
  for i = 0 to 255 do
    ignore (Fptree.Fixed.delete t (i * 2))
  done;
  let s2 = Scm.Stats.snapshot () in
  let m2 = matrix_snapshot () in
  let pr phase d =
    Printf.printf "%-9s persists=%-6d flushes=%-6d fences=%d\n" phase
      d.Scm.Stats.persists d.Scm.Stats.flushes d.Scm.Stats.fences
  in
  pr "create" (Scm.Stats.diff s0 s1);
  pr_breakdown m0 m1;
  pr "workload" (Scm.Stats.diff s1 s2);
  pr_breakdown m1 m2;
  Fptree.Fixed.check_invariants t
