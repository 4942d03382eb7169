(* Tests of the recovery rebuild: the per-leaf phase runs on several
   domains in fast mode and on one otherwise, and the two must rebuild
   the same tree from the same image; every checked configuration
   (instrumentation, model checking, an armed fault injector) must fall
   back to one domain; the domain helper must join every domain before
   it re-raises a failure, and a run inside a multi-domain run stays on
   its domain; and the TATP restart, which recovers its four indexes on
   that helper, must rebuild the same database on any worker count. *)

module Workers = Fptree.Recovery_workers
module Palloc = Pmem.Palloc
module Pptr = Pmem.Pptr

let fast_mode () =
  Scm.Config.reset ();
  Scm.Config.set_stats false;
  Scm.Config.set_crash_tracking false;
  Scm.Config.set_delay_injection false

(* Trees with small leaves, so a few thousand keys give well over the
   two chunks of [Workers.min_leaves_per_domain] leaves a parallel
   rebuild needs. *)
let m = 8
let n_keys = 12 * Workers.min_leaves_per_domain * m / 4

module Case (K : Fptree.Keys.KEY) (G : sig
  val key : int -> K.t
  val use_groups : bool
end) =
struct
  module T = Fptree.Tree.Make (K)

  let config =
    let base =
      if G.use_groups then Fptree.Tree.fptree_config
      else Fptree.Tree.fptree_concurrent_config
    in
    { base with Fptree.Tree.m; inner_keys = 16 }

  (* Algorithm 17's case, planted on every fifth leaf that has a free
     slot: a key-block pointer left in an empty cell, alternately a
     second reference to a valid slot's block (recovery must reset the
     cell) and the only reference to an orphan block (recovery must free
     it).  Returns the cells planted. *)
  let plant_stale_refs a t =
    let r = Palloc.region a in
    let planted = ref [] and nth = ref 0 in
    T.iter_leaves t (fun leaf ->
        let bm = T.leaf_bitmap t leaf in
        let free = ref (-1) and used = ref (-1) in
        for s = m - 1 downto 0 do
          if bm land (1 lsl s) = 0 then free := s else used := s
        done;
        if !free >= 0 && !used >= 0 then begin
          incr nth;
          if !nth mod 5 = 0 then begin
            let cell = T.key_cell t leaf !free in
            if !nth mod 10 = 0 then begin
              Pptr.write r cell (Pptr.read r (T.key_cell t leaf !used));
              Scm.Region.persist r cell Pptr.size_bytes
            end
            else Palloc.alloc a ~into:(Pptr.Loc.make r cell) 24;
            planted := cell :: !planted
          end
        end);
    !planted

  (* An image of a fast-mode tree holding [n_keys] keys, saved to a
     temporary file, and the cells holding planted stale pointers. *)
  let image () =
    fast_mode ();
    Scm.Registry.clear ();
    let a = Palloc.create ~size:(32 * 1024 * 1024) () in
    let t = T.create ~config a in
    let rng = Random.State.make [| 5 |] in
    let order = Array.init n_keys Fun.id in
    for i = n_keys - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- x
    done;
    Array.iter (fun i -> assert (T.insert t (G.key i) i)) order;
    (* Deletes leave free slots (and empty cells) all over the chain. *)
    Array.iteri (fun j i -> if j mod 7 = 0 then assert (T.delete t (G.key i))) order;
    let planted = if K.inline then [] else plant_stale_refs a t in
    let path = Filename.temp_file "recovery" ".scm" in
    Scm.Region.save (Palloc.region a) path;
    (path, planted)

  let reopen path =
    Scm.Registry.clear ();
    let r = Scm.Region.load path in
    Scm.Registry.register r;
    Palloc.of_region r

  (* Inner nodes, flattened in order: separators and leaf offsets. *)
  let rec shape acc = function
    | Fptree.Inner.Leaf l -> `Leaf l.Fptree.Inner.off :: acc
    | Fptree.Inner.Inner n ->
      let acc = ref acc in
      for i = n.Fptree.Inner.nkeys downto 0 do
        acc := shape !acc n.Fptree.Inner.children.(i);
        if i > 0 then acc := `Sep n.Fptree.Inner.keys.(i - 1) :: !acc
      done;
      !acc

  type observed = {
    domains : int;
    contents : (K.t * int) list;
    leaves : int list;
    inner : [ `Leaf of int | `Sep of K.t ] list;
    frees : int;
    stale_left : int;
  }

  let recover_observed ~serial path planted =
    fast_mode ();
    let a = reopen path in
    if serial then Scm.Config.set_stats true;
    let t = T.recover ~config a in
    let domains = Workers.last_domains () in
    fast_mode ();
    T.check_invariants t;
    Alcotest.(check (list int))
      "no leaked blocks" []
      (Palloc.leaked_blocks a ~reachable:(T.reachable_blocks t));
    let r = Palloc.region a in
    let contents = ref [] and leaves = ref [] in
    T.iter t (fun k v -> contents := (k, v) :: !contents);
    T.iter_leaves t (fun l -> leaves := l :: !leaves);
    { domains;
      contents = List.rev !contents;
      leaves = List.rev !leaves;
      inner = shape [] t.T.inner.Fptree.Inner.root;
      frees = Palloc.free_count a;
      stale_left =
        List.length (List.filter (fun c -> not (Pptr.is_null_at r c)) planted) }

  let test_serial_parallel_agree () =
    let path, planted = image () in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    let s = recover_observed ~serial:true path planted in
    let p = recover_observed ~serial:false path planted in
    Alcotest.(check int) "instrumented recovery is serial" 1 s.domains;
    let leaves = List.length p.leaves in
    Alcotest.(check bool)
      (Printf.sprintf "%d leaves: above the parallel threshold" leaves)
      true (leaves >= 2 * Workers.min_leaves_per_domain);
    Alcotest.(check int) "fast-mode recovery uses every domain it may"
      (min (Domain.recommended_domain_count ())
         (leaves / Workers.min_leaves_per_domain))
      p.domains;
    Alcotest.(check int) "key count" (n_keys - ((n_keys + 6) / 7))
      (List.length p.contents);
    Alcotest.(check bool) "same iter output" true (s.contents = p.contents);
    Alcotest.(check (list int)) "same leaf order" s.leaves p.leaves;
    Alcotest.(check bool) "same discriminators and inner shape" true
      (s.inner = p.inner);
    Alcotest.(check int) "same free count" s.frees p.frees;
    Alcotest.(check int) "stale cells cleared (serial)" 0 s.stale_left;
    Alcotest.(check int) "stale cells cleared (parallel)" 0 p.stale_left;
    if planted <> [] then
      Alcotest.(check bool) "orphan blocks freed" true (p.frees > 0)

  (* A crash scheduled inside the rebuild's leak audit: the armed
     injector keeps recovery on one domain, the crash reaches the
     caller, and a second recovery converges. *)
  let test_crash_fallback () =
    let path, planted = image () in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    let expected = (recover_observed ~serial:false path planted).contents in
    fast_mode ();
    let a = reopen path in
    Scm.Config.schedule_crash_after 3;
    Alcotest.check_raises "crash surfaces in the caller"
      Scm.Config.Crash_injected (fun () -> ignore (T.recover ~config a));
    Alcotest.(check int) "armed injector: one domain" 1
      (Workers.last_domains ());
    Scm.Config.disarm_crash ();
    let a = Palloc.of_region (Palloc.region a) in
    let t = T.recover ~config a in
    T.check_invariants t;
    let contents = ref [] in
    T.iter t (fun k v -> contents := (k, v) :: !contents);
    Alcotest.(check bool) "second recovery converges" true
      (List.rev !contents = expected);
    Alcotest.(check (list int))
      "no leaked blocks" []
      (Palloc.leaked_blocks a ~reachable:(T.reachable_blocks t))
end

module Fixed_case =
  Case (Fptree.Keys.Fixed) (struct
    let key i = 2 * i
    let use_groups = false
  end)

module Var_case =
  Case (Fptree.Keys.Var) (struct
    let key i = Printf.sprintf "key-%08d" (i * 7919 mod 1_000_003)
    let use_groups = false
  end)

module Group_case =
  Case (Fptree.Keys.Var) (struct
    let key i = Printf.sprintf "g%06d" i
    let use_groups = true
  end)

(* Every switch that puts a region off its fast path, model checking,
   and every fault injector, each alone, must veto parallel work. *)
let test_parallel_safe () =
  fast_mode ();
  Scm.Registry.clear ();
  let r = Scm.Registry.create ~size:4096 in
  Alcotest.(check bool) "fast mode, nothing armed" true
    (Scm.Region.parallel_safe r);
  let vetoes =
    [ ("stats", (fun () -> Scm.Config.set_stats true));
      ("crash tracking", (fun () -> Scm.Config.set_crash_tracking true));
      ("tracing", (fun () -> Scm.Config.set_tracing true));
      ("delay injection", (fun () -> Scm.Config.set_delay_injection true));
      ("model checking", (fun () -> Scm.Config.set_model_check true));
      ("scheduled crash", (fun () -> Scm.Config.schedule_crash_after 5));
      ("torn store", (fun () -> Scm.Config.schedule_torn_store 5));
      ("persist skip", (fun () -> Scm.Config.schedule_persist_skip 5));
      ("alloc failure", (fun () -> Palloc.schedule_alloc_failure 5));
      ("out of scm", (fun () -> Palloc.schedule_out_of_scm 5)) ]
  in
  List.iter
    (fun (name, arm) ->
      fast_mode ();
      arm ();
      Alcotest.(check bool) name false (Scm.Region.parallel_safe r);
      Alcotest.(check int) (name ^ ": one domain") 1
        (Workers.domains r ~leaves:1_000_000))
    vetoes;
  Scm.Config.disarm_crash ();
  Scm.Config.cancel_torn_store ();
  Scm.Config.cancel_persist_skip ();
  Palloc.cancel_alloc_failure ();
  Palloc.cancel_out_of_scm ();
  fast_mode ();
  Alcotest.(check bool) "disarmed again" true (Scm.Region.parallel_safe r);
  Alcotest.(check int) "too few leaves: one domain" 1
    (Workers.domains r ~leaves:(2 * Workers.min_leaves_per_domain - 1))

let test_chunks_cover () =
  let n = 1000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Workers.run ~domains:3 n (fun lo hi ->
      for i = lo to hi - 1 do
        Atomic.incr hits.(i)
      done);
  Alcotest.(check bool) "every index exactly once" true
    (Array.for_all (fun c -> Atomic.get c = 1) hits);
  Alcotest.(check int) "last_domains" 3 (Workers.last_domains ())

exception Chunk of int

(* A failing chunk is re-raised only once the slow chunk has finished:
   every helper is joined first.  The caller's own failure wins over a
   helper's. *)
let test_failure_joins_all () =
  let slow_done = Atomic.make false in
  let slow () =
    Unix.sleepf 0.05;
    Atomic.set slow_done true
  in
  (match
     Workers.run ~domains:3 3 (fun lo _ ->
         if lo = 1 then raise (Chunk 1) else if lo = 2 then slow ())
   with
  | () -> Alcotest.fail "helper failure swallowed"
  | exception Chunk c ->
    Alcotest.(check int) "the helper's exception" 1 c;
    Alcotest.(check bool) "slow helper joined before the re-raise" true
      (Atomic.get slow_done));
  Atomic.set slow_done false;
  match
    Workers.run ~domains:3 3 (fun lo _ ->
        if lo = 2 then slow () else raise (Chunk lo))
  with
  | () -> Alcotest.fail "caller failure swallowed"
  | exception Chunk c ->
    Alcotest.(check int) "the caller's exception wins" 0 c;
    Alcotest.(check bool) "slow helper joined before the re-raise" true
      (Atomic.get slow_done)

(* A run started while a two-domain run is in progress — here from its
   chunks, on the caller's domain and on a helper — is one chunk over
   the whole range, on the domain that started it.  The outer run's
   domain count stands, and once it returns a run may spawn again. *)
let test_nested_run_stays () =
  let inner = Array.make 2 [] in
  Workers.run ~domains:2 2 (fun lo _ ->
      let self = Domain.self () in
      Workers.run ~domains:2 100 (fun a b ->
          inner.(lo) <- (a, b, Domain.self () = self) :: inner.(lo)));
  Array.iteri
    (fun i chunks ->
      Alcotest.(check (list (triple int int bool)))
        (Printf.sprintf "outer chunk %d: one inner chunk, own domain" i)
        [ (0, 100, true) ] chunks)
    inner;
  Alcotest.(check int) "last_domains is the outer run's" 2
    (Workers.last_domains ());
  let doms = Array.make 2 (Domain.self ()) in
  Workers.run ~domains:2 2 (fun lo _ -> doms.(lo) <- Domain.self ());
  Alcotest.(check bool) "a later run spawns again" true (doms.(0) <> doms.(1))

(* ---- the TATP restart ---- *)

module Tatp = Dbproto.Tatp
module Index = Dbproto.Index

(* 20k subscribers: about 75k call-forwarding keys, so the largest
   index has enough leaves for a parallel rebuild of its own. *)
let tatp_db =
  lazy
    (fast_mode ();
     Scm.Registry.clear ();
     Tatp.populate ~arena_bytes:(16 * 1024 * 1024) ~subscribers:20_000
       Index.FPTree)

let indexes (db : Tatp.db) =
  [ db.Tatp.sub_index; db.Tatp.ai_index; db.Tatp.sf_index; db.Tatp.cf_index ]

(* What a restarted database answers: each index's key count and the
   results of a fixed stream of transactions. *)
let answers db =
  let rng = Random.State.make [| 7 |] in
  ( List.map (fun (i : Index.t) -> i.Index.count ()) (indexes db),
    List.init 5_000 (fun _ ->
        let sink = ref 0 in
        Tatp.run_one db rng sink;
        !sink) )

let restart_domains workers =
  min workers (min 4 (Domain.recommended_domain_count ()))

let test_restart_workers_agree () =
  let db = Lazy.force tatp_db in
  fast_mode ();
  let before = answers db in
  List.iter
    (fun workers ->
      let db', _ = Tatp.restart ~workers db in
      (* On one worker the restart is no multi-domain run, so each
         tree's rebuild may use domains of its own. *)
      if restart_domains workers > 1 then
        Alcotest.(check int)
          (Printf.sprintf "workers:%d: domains used" workers)
          (restart_domains workers) (Workers.last_domains ());
      Alcotest.(check bool)
        (Printf.sprintf "workers:%d: same key counts and answers" workers)
        true
        (answers db' = before))
    [ 1; 2; 4 ]

(* The call-forwarding index, which the calling domain recovers first,
   gets an arena with no tree in it: its failure reaches the caller,
   but only once every helper has recovered its indexes and been
   joined — the same pattern as [test_failure_joins_all]. *)
let test_restart_failure_joins_all () =
  let db = Lazy.force tatp_db in
  fast_mode ();
  let no_tree =
    { db.Tatp.cf_index with
      Index.alloc = Some (Palloc.create ~size:(1024 * 1024) ()) }
  in
  let db = { db with Tatp.cf_index = no_tree } in
  let self = (Domain.self () :> int) in
  List.iter
    (fun workers ->
      Obs.Flight.reset ();
      Obs.Gate.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.Gate.set_enabled false) (fun () ->
          Alcotest.check_raises
            (Printf.sprintf "workers:%d: the caller's failure" workers)
            (Failure "Tree.recover: no tree in region")
            (fun () -> ignore (Tatp.restart ~workers db)));
      let helper_rebuilds =
        List.length
          (List.filter
             (fun (e : Obs.Flight.event) ->
               e.tag = Obs.Event.span
               && Obs.Flight.name_of e.a = "fptree.recovery.rebuild"
               && e.dom <> self)
             (Obs.Flight.drain ()))
      in
      let d = restart_domains workers in
      Alcotest.(check int)
        (Printf.sprintf "workers:%d: helpers finished before the re-raise"
           workers)
        (4 - (4 / d)) helper_rebuilds)
    [ 2; 4 ]

let () =
  Alcotest.run "recovery"
    [ ( "serial-vs-parallel",
        [ Alcotest.test_case "fixed keys agree" `Quick
            Fixed_case.test_serial_parallel_agree;
          Alcotest.test_case "var keys + stale refs agree" `Quick
            Var_case.test_serial_parallel_agree;
          Alcotest.test_case "leaf groups + stale refs agree" `Quick
            Group_case.test_serial_parallel_agree ] );
      ( "fallback",
        [ Alcotest.test_case "checked configurations veto domains" `Quick
            test_parallel_safe;
          Alcotest.test_case "crash in the rebuild runs serial" `Quick
            Var_case.test_crash_fallback ] );
      ( "workers",
        [ Alcotest.test_case "chunks cover the range" `Quick test_chunks_cover;
          Alcotest.test_case "failures re-raised after every join" `Quick
            test_failure_joins_all;
          Alcotest.test_case "a run inside a run stays on its domain" `Quick
            test_nested_run_stays ] );
      ( "restart",
        [ Alcotest.test_case "TATP restart on 1, 2 and 4 workers agrees"
            `Quick test_restart_workers_agree;
          Alcotest.test_case "TATP restart re-raises after every join"
            `Quick test_restart_failure_joins_all ] ) ]
