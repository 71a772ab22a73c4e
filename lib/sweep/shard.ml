module Framework = Ch_core.Framework

type mode = Framework.mode = Exhaustive | Sampled of { seed : int; samples : int }

(* bits 0-24 lo, bits 25-49 hi, bits 50-62 index *)
type t = int

(* 25 + 25 + 12 = 62 bits: the packed value stays a non-negative OCaml
   immediate (63-bit ints have 62 magnitude bits) *)
let lo_bits = 25
let index_bits = 12
let max_pairs = (1 lsl lo_bits) - 1
let max_shards = 1 lsl index_bits

let make ~index ~lo ~hi =
  if lo < 0 || hi < lo || hi > max_pairs then
    invalid_arg "Shard.make: need 0 <= lo <= hi <= max_pairs";
  if index < 0 || index >= max_shards then
    invalid_arg "Shard.make: index out of range";
  lo lor (hi lsl lo_bits) lor (index lsl (2 * lo_bits))

let pack t = t
let lo t = t land max_pairs
let hi t = (t lsr lo_bits) land max_pairs
let index t = t lsr (2 * lo_bits)
let count t = hi t - lo t

let unpack p =
  if p < 0 || p lsr (2 * lo_bits + index_bits) <> 0 then
    invalid_arg "Shard.unpack: not a packed shard";
  (* round-trip through [make] re-validates the field invariants *)
  make ~index:(index p) ~lo:(lo p) ~hi:(hi p)

let total fam mode =
  let t = Framework.pair_count fam mode in
  if t > max_pairs then invalid_arg "Shard.total: pair space too large";
  t

let partition ~total ~shards =
  if total < 0 || total > max_pairs then
    invalid_arg "Shard.partition: need 0 <= total <= max_pairs";
  if shards < 1 || shards > max_shards then
    invalid_arg "Shard.partition: need 1 <= shards <= max_shards";
  Array.init shards (fun i ->
      make ~index:i ~lo:(i * total / shards) ~hi:((i + 1) * total / shards))

let generator = Framework.pair_at
