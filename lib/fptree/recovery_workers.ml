(** Domains for the per-leaf phase of recovery.

    The leaves of a recovering tree are independent of each other once
    the chain walk has listed them, so the rebuild splits that list
    into contiguous chunks and works them on several domains.  The
    partition is static — one chunk per domain, fixed before any work
    starts — because lib/fptree keeps no [Atomic] state of its own (the
    model checker must see every shared access), so a shared work
    queue is not an option; leaves cost about the same, so equal
    chunks balance well enough.

    This is the one place in the tree library that spawns domains. *)

(* A domain spawn plus join costs 150–300 µs on a 2-vCPU VM, about
   what 100 leaves of per-leaf recovery work cost; a chunk smaller than
   this does not pay for its domain. *)
let min_leaves_per_domain = 256

let last = ref 1

let () =
  Obs.Registry.gauge "fptree_recovery_domains"
    ~help:"domains the most recent recovery rebuild used"
    (fun () -> !last)

(* Helpers are spawned from the main domain only.  A recovery that
   already runs on a spawned domain is one of its caller's parallel
   tasks ([Tatp.restart] recovers four trees on two workers), and
   helpers of its own would oversubscribe the cores: on a 2-vCPU VM that
   nesting made the TATP restart 20–30% slower (0.225–0.237 s against
   0.182–0.186 s, medians of 12 restarts alternated in one process). *)
let domains region ~leaves =
  if leaves < 2 * min_leaves_per_domain
     || (not (Domain.is_main_domain ()))
     || not (Scm.Region.parallel_safe region)
  then 1
  else min (Domain.recommended_domain_count ()) (leaves / min_leaves_per_domain)

let last_domains () = !last

let run ~domains n f =
  last := domains;
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
     moved on.  The caller's own failure wins, then the lowest chunk's. *)
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
  match failure with
  | None -> ()
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
