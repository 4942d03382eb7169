(** Domain-sharded monotone counter.

    The seed's plain-[ref] counters lose increments under parallel
    domains (two domains read-modify-write the same word).  Here every
    domain increments its own slot — an [Atomic.t] indexed by the
    domain id — so totals are {e exact} under any interleaving:
    per-slot increments are atomic (two domains whose ids collide
    modulo the shard count share a slot safely), and [value] folds the
    slots with atomic reads.

    Slots are spaced [stride] array cells apart and the atomics are
    allocated back-to-back, so consecutive slots land on different
    cache lines and a domain's increments do not false-share with its
    neighbours'. *)

type t = { slots : int Atomic.t array }

let shards = 64 (* power of two: slot = domain id land (shards - 1) *)

(* Cells between live slots.  A boxed [int Atomic.t] is a 2-word block
   (header + value), so stride 8 puts live slots >= 128 bytes apart —
   a full line of padding on 64-byte-line machines, and safe against
   the 128-byte prefetch pairing of recent Intel parts.  (The previous
   stride 4 left adjacent shards only ~64B apart: exactly one line,
   with no slack for allocation order.) *)
let stride = 8

(* The filler of [atomics]' array before its cells are stored: shared,
   so it is old whenever [atomics] runs after start-up. *)
let filler = Atomic.make 0

let atomics n =
  let a = Array.make n filler in
  for i = 0 to n - 1 do
    a.(i) <- Atomic.make 0
  done;
  a

let make () = { slots = atomics (shards * stride) }

let[@inline] slot t =
  Array.unsafe_get t.slots
    (((Domain.self () :> int) land (shards - 1)) * stride)

let[@inline] incr t = Atomic.incr (slot t)

let[@inline] add t n =
  if n <> 0 then ignore (Atomic.fetch_and_add (slot t) n)

(** Exact total across all shards (quiescent callers see the exact sum;
    a concurrent reader sees some linearized partial sum). *)
let value t =
  let s = ref 0 in
  for i = 0 to shards - 1 do
    s := !s + Atomic.get t.slots.(i * stride)
  done;
  !s

(** Per-shard totals: [(shard, value)] for the non-zero shards, in
    shard order.  Shard = domain id modulo {!shards}. *)
let per_shard t =
  let acc = ref [] in
  for i = shards - 1 downto 0 do
    let v = Atomic.get t.slots.(i * stride) in
    if v <> 0 then acc := (i, v) :: !acc
  done;
  !acc

let reset t =
  for i = 0 to shards - 1 do
    Atomic.set t.slots.(i * stride) 0
  done
