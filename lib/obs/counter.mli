(** Domain-sharded monotone counter: exact totals under [Domain]
    parallelism (each domain increments its own padded atomic slot). *)

type t

val shards : int
val make : unit -> t
val incr : t -> unit
val add : t -> int -> unit

(** Exact total across all shards. *)
val value : t -> int

(** [(shard, value)] for the non-zero shards; shard = domain id mod
    {!shards}. *)
val per_shard : t -> (int * int) list

val reset : t -> unit

(** [atomics n] is [n] fresh atomics holding 0, allocated back to back.
    Unlike [Array.init n (fun _ -> Atomic.make 0)], it does not force a
    minor collection (which stops every domain) when the array is wider
    than 256 words: the array is made around an old filler. *)
val atomics : int -> int Atomic.t array
