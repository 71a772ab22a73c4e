open Ch_graph

(** Memoized core preprocessing for the exact solvers.

    The lower-bound families (Definition 1.1) share one fixed gadget core
    across the whole 2^K × 2^K input-pair space: only O(k) input edges
    vary per pair.  This module precomputes the solver work that depends
    on the core alone — Steiner connectivity tables, the conditioned
    max-cut and MIS/MWIS tables, node-weighted Steiner feasibility,
    directed-Steiner reversed rows, dominating-set balls — and answers
    per-pair queries from those tables plus the input-edge delta, exactly
    matching the from-scratch solver results.

    Every cache memoizes its tables globally in one memo shape: hash
    buckets of (frozen key, tables) entries, probed with a full equality
    re-check so hash collisions cannot serve wrong tables.  Graph cores
    are keyed by {!Props.structural_hash} plus the query parameters;
    the directed-Steiner core by its sorted arc list and query frame.
    Tables are plain data, safe to share across domains (MIS values are
    filled lazily under one lock); the per-instance query scratch is
    not, so use one prepared instance per worker (the framework prepares
    one per pool worker and reuses it across that worker's chunks).

    {b Query cost.}  A prepare is a structural hash of the core plus a
    sort-free {!Graph.equal_structure} re-check of the memo hit.  Per-pair
    queries allocate nothing beyond per-instance scratch arrays, which
    grow to the largest [extra] seen and are then reused:
    - {!steiner_min_extra}: [extra] copied into two endpoint arrays, then
      per candidate set, in size order, one union-find step per extra
      edge until the terminals connect;
    - {!maxcut_max}: [extra] laid out as a flat adjacency over volatile
      indices, then a Gray walk over the [2^|volatile|] assignments, one
      step per extra edge at the flipped vertex;
    - {!mis_alpha} / {!mwis_weight}: one conflict mask per volatile index
      built from [extra], then each entry scanned is tested against the
      masks of its touched members (lazily solved entries aside);
    - {!nwsteiner_cost}: one weight sum over each inclusion-minimal
      feasible connector mask;
    - {!dsteiner_cost}: a copied row array plus one Dreyfus–Wagner run;
    - {!domset_balls}: a copied ball array, one ball copied per touched
      endpoint.

    {b Counters:} a [miss] is a core-table computation; a [hit] is an
    operation served from cached tables (a memoized prepare, or a
    per-pair query). *)

type stats = { cache_hits : int; cache_misses : int }

(** {1 Steiner trees: {!Steiner.min_extra_nodes} on core + input edges} *)

type steiner

val steiner_prepare : Graph.t -> terminals:int list -> cap:int -> steiner
(** Enumerate, in size order, every candidate connector set of at most
    [cap] non-terminals (the same candidate space as
    {!Steiner.min_extra_nodes} with [~cap]) and store each vertex's core
    component id.  @raise Invalid_argument when the graph has no or
    out-of-range terminals, [n > 250], or the subset space is too large
    to tabulate. *)

val steiner_min_extra : steiner -> extra:(int * int) list -> int option
(** The minimum number of non-terminal connector vertices making the
    terminals connected in [core + extra], i.e. exactly
    [Steiner.min_extra_nodes ~cap core_with_extra terminals]: candidate
    sets are replayed in the same size order, unioning only the [extra]
    edges over the precomputed component ids.  [extra] edges must stay
    within the core vertex range (endpoints outside the candidate set are
    ignored, as in the from-scratch solver). *)

val steiner_stats : steiner -> stats

(** {1 Max cut: conditioned enumeration over the volatile vertices} *)

type maxcut

val maxcut_prepare : Graph.t -> volatile:int list -> maxcut
(** Tabulate {!Maxcut.conditioned_max} of the core over the [volatile]
    vertices — the only vertices input edges may touch.
    @raise Invalid_argument when [n > 30] (the exact solver's limit). *)

val maxcut_max : ?stop_at:int -> maxcut -> extra:(int * int * int) list -> int
(** The exact maximum cut weight of [core + extra], i.e.
    [fst (Maxcut.max_cut core_with_extra)], computed as
    [max_a (m.(a) + extra_cut a)] over the [2^|volatile|] volatile
    assignments only.  Every [extra] edge [(u, v, w)] must have both
    endpoints volatile.  With [~stop_at:b] the scan ends at the first
    assignment reaching [b]: the result is the true maximum when below
    [b], and any result ≥ [b] certifies the true maximum is ≥ [b] — so
    comparisons against [b] are exact either way. *)

val maxcut_stats : maxcut -> stats

(** {1 Max independent set: conditioned table over the volatile vertices} *)

type mis

val mis_prepare : Graph.t -> volatile:int list -> mis
(** For every subset A of [volatile] that is independent in the core, the
    table conceptually holds [|A| + Mis.alpha (core minus volatile minus
    N(A))] — the best completion of A outside the volatile set, which no
    volatile-volatile input edge can change.  The build is lazy: it
    enumerates the subsets and stores only the admissible upper bound
    [|A| + alpha(core minus volatile)] per entry (α is monotone under
    induced subgraphs); exact values are solved on demand at query time
    and memoized, so subsets no query needs are never solved.
    @raise Invalid_argument when there are more than 62 volatile vertices
    or more than 2^16 core-independent subsets (the families' row cliques
    keep it at (k+1)^4). *)

val mis_alpha : mis -> extra:(int * int) list -> int
(** α(core + extra), i.e. exactly [Mis.alpha core_with_extra]: scans the
    compatible subsets (those containing no [extra] edge) in decreasing
    upper-bound order, lazily evaluating until the next bound cannot beat
    the best exact value.  Every [extra] edge must have both endpoints
    volatile. *)

val mis_stats : mis -> stats

(** {2 The weighted case} *)

val mwis_prepare : Graph.t -> volatile:int list -> mis
(** The weighted twin of {!mis_prepare}: for every core-independent
    subset A of [volatile], tabulate [w(A) + mwis(core minus volatile
    minus N(A))] under the core's vertex weights.  Sound for families
    whose inputs only add volatile-volatile edges and leave the weights
    fixed (the Theorem 4.3 gadget).  Same limits as {!mis_prepare};
    its counters are [cache.mwis.*]. *)

val mwis_weight : mis -> extra:(int * int) list -> int
(** The maximum independent-set weight of [core + extra], i.e. exactly
    [fst (Mis.max_weight_set core_with_extra)].  Every [extra] edge must
    have both endpoints volatile. *)

(** {1 Node-weighted Steiner: minimal feasible connector sets} *)

type nwsteiner

val nwsteiner_prepare : Graph.t -> terminals:int list -> nwsteiner
(** Decide, for every subset S of non-terminals, whether the subgraph
    induced on [terminals ∪ S] is connected, and keep only the
    inclusion-minimal feasible S (an O(2^m·m) subset sweep over the m
    non-terminals).  {!Steiner.node_weighted} equals the minimum of
    [w(terminals ∪ S)] over feasible S, and with non-negative weights
    some minimum-weight feasible S is inclusion-minimal, so for
    fixed-topology families whose inputs only move vertex weights
    (Theorem 4.4, node-weighted) a per-pair query is a weight sum over
    those masks, not a Dreyfus–Wagner run.  @raise Invalid_argument when
    there are more than 18 non-terminals. *)

val nwsteiner_cost : nwsteiner -> weights:int array -> int
(** [Steiner.node_weighted] of the core under [weights] (one weight per
    core vertex): the minimum weight sum over the minimal feasible
    connector masks.  Raises the same [Invalid_argument]s as the
    from-scratch solver on negative weights or disconnected terminals
    (no feasible mask). *)

val nwsteiner_stats : nwsteiner -> stats

(** {1 Directed Steiner: shared reversed-adjacency snapshot} *)

type dsteiner

val dsteiner_prepare : Digraph.t -> root:int -> terminals:int list -> dsteiner
(** Snapshot the core's reversed adjacency rows, memoized on
    (n, sorted arc list, root, terminals). *)

val dsteiner_cost :
  ?cutoff:int -> dsteiner -> extra:(int * int * int) list -> int option
(** [Steiner.directed ~root terminals] of [core + extra]: the shared
    rows are patched copy-on-write (extra arcs consed onto the rows they
    enter), then solved through {!Steiner.directed_over}.  Extra arcs
    must stay in range; duplicates of core arcs are harmless (the DW
    relaxation takes minima).  [cutoff] as in {!Steiner.directed}: exact
    decision against the bound, with dp rows pruned against it. *)

val dsteiner_stats : dsteiner -> stats

(** {1 Dominating sets: shared closed balls} *)

type domset

val domset_prepare : Graph.t -> radius:int -> domset
(** Precompute the closed radius-[radius] balls of the core, any
    [radius >= 1]. *)

val domset_balls : domset -> extra:(int * int) list -> Bitset.t array
(** Balls of [core + extra]: untouched balls are shared with the core
    tables (copy-on-write on the patched endpoints), so pass the result
    to [Domset.min_size ~balls] / [min_weight_set ~balls] — which only
    read them — on the patched graph.  With [radius > 1] an extra edge
    can perturb balls far from its endpoints, so only [extra = []] is
    accepted there (the weights-only families query exactly that way).
    @raise Invalid_argument otherwise. *)

val domset_stats : domset -> stats

val clear : unit -> unit
(** Drop every memoized core table (counters of live prepared instances
    are unaffected).  Mainly for tests measuring memo behavior. *)

(** {1 Snapshot / restore}

    The sweep store ([Ch_sweep]) and the serve daemon ([Ch_serve])
    persist the memo tables, so a resumed sweep — or a freshly started
    server — begins from a previous run's core tables instead of
    rebuilding them.  A snapshot carries every memo's entries as they
    are (all tables are plain data): solved MIS/MWIS values survive the
    round trip, unsolved ones stay lazy.  The byte string starts with
    the format tag [chcache4] (node-weighted Steiner tables as minimal
    masks); older tags ([chcache3], [chcache2]) are refused. *)

val snapshot : unit -> string
(** A self-contained byte string of the current memo contents,
    deterministic in those contents: entries are sorted by bucket hash,
    then by key within a bucket, so the order in which tables were built
    does not show. *)

val restore : string -> int
(** Merge a {!snapshot} back in, keeping any table the process already
    holds (full key re-check, never a blind overwrite); returns the
    number of tables added.  @raise Failure on a byte string that is not
    a snapshot of this format (older formats included) or fails to parse
    — callers checksum snapshots before restoring, so this is a
    defense-in-depth check, not the integrity mechanism. *)
