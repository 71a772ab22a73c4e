open Ch_graph
open Ch_cc

(** The paper's lower-bound framework.

    A {e family of lower bound graphs} (Definition 1.1) w.r.t. a function
    f : \{0,1\}^K × \{0,1\}^K → \{TRUE,FALSE\} and a predicate P is a set
    of graphs G_{x,y} on a fixed vertex set V = V_A ⊎ V_B such that only
    G[V_A] depends on x, only G[V_B] depends on y, and G_{x,y} ⊨ P iff
    f(x,y).  Theorem 1.1 turns such a family into an
    Ω(CC(f)/(|E_cut|·log n)) round lower bound: Alice and Bob simulate a
    CONGEST algorithm for P, exchanging only the messages that cross
    E_cut. *)

type instance =
  | Undirected of Graph.t
  | Directed of Digraph.t
  | With_terminals of Graph.t * int list
  | Rooted_digraph of Digraph.t * int * int list
      (** graph, root, terminals — the directed Steiner instances *)

type t = {
  name : string;
  params : (string * int) list;  (** construction parameters, e.g. [("k", 4)] *)
  input_bits : int;  (** K: the length of each player's input *)
  nvertices : int;
  side : bool array;  (** [side.(v)] iff v ∈ V_A *)
  build : Bits.t -> Bits.t -> instance;
  predicate : instance -> bool;  (** P, decided by an exact solver *)
  f : Bits.t -> Bits.t -> bool;  (** the communication function (e.g. ¬DISJ) *)
}

val graph_of : instance -> Graph.t
(** The underlying undirected graph (directed instances forget
    orientation) — used for structural measurements. *)

val cut_edges : t -> (int * int) list
(** E_cut of the family, measured on the all-zeros instance (by
    Definition 1.1 it is the same for every instance). *)

val cut_size : t -> int

type cut_info = {
  ci_edges : (int * int) array;
      (** E_cut, oriented (Alice endpoint, Bob endpoint), sorted *)
  ci_asize : int;  (** |V_A| *)
  ci_bsize : int;  (** |V_B| *)
  ci_index : (int * int, int) Hashtbl.t;  (** both orientations → index *)
}

val cut_info : t -> cut_info
(** The cut/side descriptor the reduction simulation works from:
    {!cut_edges} oriented towards Alice and indexed for per-edge traffic
    attribution (see [Ch_reduction.Trace]). *)

val cut_index : cut_info -> int -> int -> int option
(** Index of the cut edge {u,v} in {!field-ci_edges} (either endpoint
    order), or [None] when {u,v} does not cross the cut. *)

type multicut_info = {
  mc_parts : int;  (** t *)
  mc_edges : (int * int) array;
      (** the multicut, oriented (lower part, higher part), sorted *)
  mc_index : (int * int, int) Hashtbl.t;  (** both orientations → index *)
  mc_part_sizes : int array;  (** vertices per part *)
}

val multicut_info : t -> partition:int array -> multicut_info
(** The t-party analogue of {!cut_info} for a vertex partition: the cross
    edges of the zero-input instance, indexed for per-edge traffic
    attribution.  Like the 2-party cut, the multicut must be input
    independent — families registering a partition keep their input
    edges inside parts.
    @raise Invalid_argument on a partition of the wrong length or with
    an empty part. *)

val multicut_index : multicut_info -> int -> int -> int option

(** {1 Family verification}

    Verifying a family means checking P(G_{x,y}) = f(x,y) over its
    {e pair space}: either all 2^K × 2^K input pairs, or four corner
    pairs plus seeded samples.  A {!mode} names the space, {!pair_at}
    maps an index in [\[0, pair_count)] to its pair, and {!verdicts} is
    the one driver that decides an index range of it — for the CLI, the
    sweep shards, the serve daemon, the reduction sweeps and the bench.

    {b Incremental engines.}  Per Definition 1.1 only the input encoding
    — O(k) edges — varies across the pair space.  An {!incremental}
    descriptor exploits that: {!field-prepare} builds the gadget core
    (and any solver cache, see [Ch_solvers.Cache]) once, and the
    returned {!prepared} patches input edges and answers the predicate
    per pair.  {!of_family} lifts a plain family into the same shape, so
    the scratch run — the reference oracle of the differential tests
    and the bench — goes through the same driver.

    {b Determinism.}  {!verdicts} fans the range out over a domain pool —
    [pool] when given, otherwise {!Pool.default} (sized by [CH_JOBS],
    see {!Pool}) — in index-ordered chunks merged in range order, and
    every pair is a pure function of its index.  Results are therefore
    bit-identical for any worker count or schedule. *)

type cache_stats = Ch_solvers.Cache.stats = { cache_hits : int; cache_misses : int }
(** Summed solver-cache counters: a miss is a core-table computation, a
    hit an operation served from cached tables (see [Ch_solvers.Cache]). *)

val no_cache_stats : cache_stats

val add_cache_stats : cache_stats -> cache_stats -> cache_stats

type prepared = {
  pbuild : Bits.t -> Bits.t -> instance;
      (** Patch the core with the pair's input edges.  The returned
          instance aliases the core graph: it is valid until the next
          [pbuild]/[pverdict] call on this prepared value. *)
  pverdict : Bits.t -> Bits.t -> bool;
      (** P(G_{x,y}), equal to [scratch.predicate (scratch.build x y)]
          but answered from the core caches.

          {b Decision-bounded queries.}  Every family predicate is a
          threshold test ("optimum ≤ target" or "≥ target"), so a
          [pverdict] need not compute the optimum: it may call the
          solver's decision form ([Domset.exists_within],
          [Cache.maxcut_max ~stop_at], [Cache.dsteiner_cost ~cutoff],
          …), which cancels branch-and-bound subtrees that provably
          cannot cross the threshold.  The contract is unchanged — the
          verdict must be bit-identical to the scratch oracle on every
          pair, which the differential verifiers assert; only the node
          counts ([solver.*.nodes] in [Ch_obs]) shrink. *)
  pstats : unit -> cache_stats;
}

type incremental = {
  scratch : t;  (** the from-scratch family — the reference oracle *)
  prepare : unit -> prepared;
      (** build the core and solver caches; call once per worker *)
}

val of_family : t -> incremental
(** The degenerate incremental descriptor: rebuilds from scratch per pair
    and reports zero cache activity.  Runs a plain family through
    {!verdicts}. *)

type mode =
  | Exhaustive  (** all 2^K × 2^K pairs, row-major in (x, y), {!Bits.all} order *)
  | Sampled of { seed : int; samples : int }
      (** the four corner pairs, then [samples] seeded draws *)

val pair_count : t -> mode -> int
(** [4^K] exhaustive, [samples + 4] sampled.
    @raise Invalid_argument when exhaustive with [input_bits > 10], or
    sampled with [samples < 0]. *)

val pair_at : t -> mode -> int -> Bits.t * Bits.t
(** The pair at an index of the mode's space.  Partially apply it once:
    the exhaustive input table is built at that point, and each
    per-index call is then a lookup (exhaustive) or a seeded draw
    (sampled), so any slice of the space regenerates independently.
    @raise Invalid_argument as {!pair_count}. *)

val random_pair_at : t -> seed:int -> int -> Bits.t * Bits.t
(** [pair_at fam (Sampled { seed; _ })].  Indices 0–3 are the corner
    pairs (0^K,0^K), (1^K,1^K), (1^K,0^K), (0^K,1^K); index [i >= 4] is
    the pair drawn from seeds [(seed + 2(i-4), seed + 2(i-4) + 1)].
    The seeds are a pure function of [seed] and [i], never a shared RNG
    stream.

    {b Sampling is with replacement:} distinct indices may draw the same
    pair (or re-draw a corner), and every index is counted.
    Deduplicating would make failure counts depend on which indices
    collide; use [Exhaustive] when coverage of distinct pairs matters. *)

val failures : t -> mode -> bool array -> int
(** The number of indices where a verdict stream starting at index 0
    differs from f — for streams that were stored rather than computed
    by {!verdicts}. *)

type verdict_run = {
  verdicts : bool array;  (** P(G_{x,y}) per index of the range *)
  failures : int;  (** indices where the verdict differs from f(x,y) *)
  stats : cache_stats;
      (** summed once over the prepared instances of the call (one per
          pool worker that ran a chunk): each instance's prepare
          (hit or miss) plus every query it answered *)
}

val verdicts :
  ?pool:Pool.t -> incremental -> mode -> lo:int -> hi:int -> verdict_run
(** Decide the indices [\[lo, hi)] of the mode's pair space.  The range
    is cut into {!Pool.parallel_chunks} chunks (about four per worker,
    for load balance).  Each pool worker calls [prepare] once, on the
    first chunk it runs, and reuses that instance for its later chunks
    of the call: a one-worker pool prepares exactly once, a [j]-worker
    pool at most [j] times, and the mutable per-instance state never
    crosses domains.  The failure count is taken in the same pass.
    @raise Invalid_argument unless [0 <= lo <= hi <= pair_count]. *)

val verify_random_inc :
  ?pool:Pool.t -> seed:int -> samples:int -> incremental -> (int * int) * cache_stats
(** [((failures, pairs), stats)] of {!verdicts} over the whole
    [Sampled { seed; samples }] space. *)

val check_sidedness : ?pool:Pool.t -> seed:int -> samples:int -> t -> bool
(** Conditions 1–3 of Definition 1.1: the vertex set is fixed, G[V_B] and
    E_cut (edges, weights, vertex weights) do not depend on x, and
    symmetrically for y.  Checked on random input pairs; sample [i] draws
    its four strings from seeds [seed + 4i .. seed + 4i + 3]. *)

(** {1 Theorem 1.1} *)

val lower_bound_rounds : input_bits:int -> cut:int -> n:int -> float
(** CC(f)/(|E_cut|·log₂ n) with CC instantiated as the Ω(K) disjointness
    bound: the round lower bound the family certifies. *)

type simulation = {
  decision_correct : bool;
  cut_bits : int;
  cut_messages : int;
  rounds : int;
}

type solver =
  | Graph_solver of (Graph.t -> int)
  | Digraph_solver of (Digraph.t -> int)
      (** the local decision procedure a reduction runs at the gather
          root — on the undirected instance, or on the digraph itself
          for directed constructions (Hamiltonian families) *)

val simulate_reduction :
  ?seed:int ->
  ?bandwidth_factor:int ->
  ?partition:int array ->
  t ->
  solver:solver ->
  accept:(int -> bool) ->
  Bits.t ->
  Bits.t ->
  simulation
(** Run the generic exact CONGEST algorithm (gather + local [solver]) on
    the instance of (x,y) and check that [accept answer] equals f(x,y).
    Without [partition] this is the two-party Theorem 1.1 simulation over
    [fam.side] (undirected or directed per the solver); with [partition]
    the t-party run charges every cross-part message against the
    multicut (undirected instances only). *)

(** {1 Theorem 2.6: reductions between families} *)

val reduce :
  name:string ->
  transform:(instance -> instance) ->
  nvertices:int ->
  side:bool array ->
  predicate:(instance -> bool) ->
  t ->
  t
(** A new family G′_{x,y} = transform(G_{x,y}).  The Theorem 2.6 side
    conditions (V′ and E′ determined side-by-side) are not assumed — they
    are re-checked by {!check_sidedness} on the result. *)
