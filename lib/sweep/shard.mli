open Ch_cc
module Framework = Ch_core.Framework

(** Packed shard descriptors over a family's input-pair space.

    A sweep enumerates the pair indices [0 .. total) of
    {!Framework.pair_at}.  A {e shard} is a contiguous
    half-open index range [\[lo, hi)] plus its position in the
    partition, packed into one immediate [int] (the fhk packed-subset
    idiom, SNIPPETS §2): descriptors cross [Marshal]/process boundaries
    as plain integers, land in store filenames as small decimals, and a
    worker process can be handed its whole slice in an argv string.

    Layout (62 magnitude bits of an OCaml int, so the packed value is
    always a non-negative immediate): bits 0–24 [lo], bits 25–49 [hi],
    bits 50–61 the shard index — hence {!max_pairs} = 2^25 − 1 indices
    per sweep and {!max_shards} = 2^12 shards per plan. *)

type mode = Framework.mode =
  | Exhaustive
  | Sampled of { seed : int; samples : int }
      (** {!Framework.mode}, re-exported for sweep plans *)

type t

val max_pairs : int
val max_shards : int

val total : Framework.t -> mode -> int
(** {!Framework.pair_count}, bounded by {!max_pairs}.
    @raise Invalid_argument when the space exceeds {!max_pairs}, or as
    {!Framework.pair_count}. *)

val partition : total:int -> shards:int -> t array
(** [shards] contiguous ranges covering [\[0, total)] exactly, in index
    order, sizes differing by at most one (the same arithmetic for every
    caller, so a resumed run always re-derives the original shard
    boundaries).  Shards may be empty when [shards > total].
    @raise Invalid_argument outside [1 <= shards <= max_shards] or
    [0 <= total <= max_pairs]. *)

val make : index:int -> lo:int -> hi:int -> t
(** @raise Invalid_argument unless
    [0 <= lo <= hi <= max_pairs] and [0 <= index < max_shards]. *)

val pack : t -> int
val unpack : int -> t
(** Inverse of {!pack}.  @raise Invalid_argument on a bit pattern no
    {!make} produces (e.g. [lo > hi]) — a corrupted descriptor fails
    here, not downstream. *)

val index : t -> int
val lo : t -> int
val hi : t -> int
val count : t -> int

val generator : Framework.t -> mode -> int -> Bits.t * Bits.t
(** {!Framework.pair_at}. *)
