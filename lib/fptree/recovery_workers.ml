(** Domains for recovery: static contiguous chunks of independent
    work, the caller working the first.

    Two kinds of work use it.  The rebuild of one tree splits its leaf
    list, which the chain walk produced, into chunks: once listed, the
    leaves are independent of each other.  A caller that recovers
    several trees ([Dbproto.Tatp.restart]) splits its list of trees the
    same way.  The partition is static — one chunk per domain, fixed
    before any work starts — because lib/fptree keeps no [Atomic] state
    of its own (the model checker must see every shared access), so a
    shared work queue is not an option; the caller orders its items so
    that equal-length chunks balance.

    The caller always works a chunk itself instead of parking in
    [Domain.join]: a parked domain still takes part in every
    stop-the-world minor collection, so it costs a share of the cores
    while doing nothing.  A run started while a multi-domain run is in
    progress — a run inside a run — stays on its caller's domain, so a
    run never has more live domains than it asked for.

    This is the one place in the tree library that spawns domains. *)

(* A domain spawn plus join costs 150–300 µs on a 2-vCPU VM, about
   what 100 leaves of per-leaf recovery work cost; a chunk smaller than
   this does not pay for its domain. *)
let min_leaves_per_domain = 256

let last = ref 1

let () =
  Obs.Registry.gauge "fptree_recovery_domains"
    ~help:"domains the most recent outermost recovery run used"
    (fun () -> !last)

(* Whether a multi-domain run is in progress.  A run started meanwhile
   — on one of its domains, as each tree's rebuild inside a multi-tree
   restart is, or beside it — stays on its caller's domain: helpers of
   its own would oversubscribe the cores the first run sized itself to
   (on a 2-vCPU VM, four domains recovering the TATP indexes made the
   restart slower than recovering them one after another).  Guarded by
   a mutex rather than kept per domain, so the model checker's replay
   sees no hidden per-domain state. *)
let busy = ref false
let busy_lock = Mutex.create ()

let domains region ~leaves =
  if leaves < 2 * min_leaves_per_domain || not (Scm.Region.parallel_safe region)
  then 1
  else min (Domain.recommended_domain_count ()) (leaves / min_leaves_per_domain)

let last_domains () = !last

let run ~domains n f =
  let granted =
    Mutex.protect busy_lock (fun () ->
        if !busy then 1
        else begin
          last := domains;
          if domains > 1 then busy := true;
          domains
        end)
  in
  if granted = 1 then f 0 n
  else begin
    let bounds d = (n * d / domains, n * (d + 1) / domains) in
    let helpers = ref [] in
    let own =
      match
        for d = 1 to domains - 1 do
          let lo, hi = bounds d in
          helpers := Domain.spawn (fun () -> f lo hi) :: !helpers
        done;
        let lo, hi = bounds 0 in
        f lo hi
      with
      | () -> None
      | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    (* Join every helper before anything is re-raised: a helper left
       running would keep writing the region under a caller that has
       moved on.  The caller's own failure wins, then the lowest
       chunk's. *)
    let failure =
      List.fold_left
        (fun failure d ->
          match Domain.join d with
          | () -> failure
          | exception e -> (
            match failure with
            | None -> Some (e, Printexc.get_raw_backtrace ())
            | Some _ -> failure))
        own (List.rev !helpers)
    in
    Mutex.protect busy_lock (fun () -> busy := false);
    match failure with
    | None -> ()
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  end
