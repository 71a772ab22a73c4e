open Ch_graph
open Ch_cc
module Obs = Ch_obs.Obs

(* Telemetry spans shared by every verification path: [apply_inputs]
   wraps instance construction, [solver] wraps the predicate (scratch or
   prepared), [core_build] wraps per-worker incremental preparation, and
   [sidedness] wraps Definition 1.1 fingerprint checks.  All no-ops
   unless Obs is enabled. *)
let sp_apply = Obs.span "apply_inputs"
let sp_solver = Obs.span "solver"
let sp_core = Obs.span "core_build"
let sp_sided = Obs.span "sidedness"

type instance =
  | Undirected of Graph.t
  | Directed of Digraph.t
  | With_terminals of Graph.t * int list
  | Rooted_digraph of Digraph.t * int * int list

type t = {
  name : string;
  params : (string * int) list;
  input_bits : int;
  nvertices : int;
  side : bool array;
  build : Bits.t -> Bits.t -> instance;
  predicate : instance -> bool;
  f : Bits.t -> Bits.t -> bool;
}

let graph_of = function
  | Undirected g -> g
  | Directed dg -> Digraph.to_undirected dg
  | With_terminals (g, _) -> g
  | Rooted_digraph (dg, _, _) -> Digraph.to_undirected dg

(* weighted edge fingerprints of the two sides and the cut, plus vertex
   weights per side: everything Definition 1.1 constrains *)
let fingerprint fam instance =
  let g = graph_of instance in
  let side = fam.side in
  let a_edges = ref [] and b_edges = ref [] and cut = ref [] in
  Graph.iter_edges
    (fun u v w ->
      match (side.(u), side.(v)) with
      | true, true -> a_edges := (u, v, w) :: !a_edges
      | false, false -> b_edges := (u, v, w) :: !b_edges
      | _ -> cut := (u, v, w) :: !cut)
    g;
  let weights_of keep =
    List.filter_map
      (fun v -> if keep v then Some (v, Graph.vweight g v) else None)
      (List.init (Graph.n g) Fun.id)
  in
  ( List.sort compare !a_edges,
    List.sort compare !b_edges,
    List.sort compare !cut,
    weights_of (fun v -> side.(v)),
    weights_of (fun v -> not side.(v)) )

let cut_edges fam =
  let x = Bits.zeros fam.input_bits and y = Bits.zeros fam.input_bits in
  let _, _, cut, _, _ = fingerprint fam (fam.build x y) in
  List.map (fun (u, v, _) -> (u, v)) cut

let cut_size fam = List.length (cut_edges fam)

type cut_info = {
  ci_edges : (int * int) array;
  ci_asize : int;
  ci_bsize : int;
  ci_index : (int * int, int) Hashtbl.t;
}

let cut_info fam =
  let edges =
    Array.of_list
      (List.map
         (fun (u, v) -> if fam.side.(u) then (u, v) else (v, u))
         (cut_edges fam))
  in
  Array.sort compare edges;
  let index = Hashtbl.create (2 * Array.length edges) in
  Array.iteri
    (fun i (a, b) ->
      Hashtbl.replace index (a, b) i;
      Hashtbl.replace index (b, a) i)
    edges;
  let asize = Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 fam.side in
  {
    ci_edges = edges;
    ci_asize = asize;
    ci_bsize = Array.length fam.side - asize;
    ci_index = index;
  }

let cut_index ci u v = Hashtbl.find_opt ci.ci_index (u, v)

(* ---- t-party multicut descriptors ------------------------------------ *)

type multicut_info = {
  mc_parts : int;
  mc_edges : (int * int) array;
  mc_index : (int * int, int) Hashtbl.t;
  mc_part_sizes : int array;
}

(* Like [cut_info], measured on the zero-input instance: Definition 1.1
   (and its multiparty analogue) requires the multicut to be input
   independent, so families registering a partition must keep their
   input edges inside parts. *)
let multicut_info fam ~partition =
  if Array.length partition <> fam.nvertices then
    invalid_arg "Framework.multicut_info: partition length";
  let t = Ch_congest.Network.partition_parts partition in
  let x = Bits.zeros fam.input_bits and y = Bits.zeros fam.input_bits in
  let g = graph_of (fam.build x y) in
  let cross = ref [] in
  Graph.iter_edges
    (fun u v _ ->
      if partition.(u) <> partition.(v) then
        cross :=
          (if partition.(u) < partition.(v) then (u, v) else (v, u)) :: !cross)
    g;
  let edges = Array.of_list !cross in
  Array.sort compare edges;
  let index = Hashtbl.create (2 * Array.length edges) in
  Array.iteri
    (fun i (a, b) ->
      Hashtbl.replace index (a, b) i;
      Hashtbl.replace index (b, a) i)
    edges;
  let sizes = Array.make t 0 in
  Array.iter (fun p -> sizes.(p) <- sizes.(p) + 1) partition;
  { mc_parts = t; mc_edges = edges; mc_index = index; mc_part_sizes = sizes }

let multicut_index mc u v = Hashtbl.find_opt mc.mc_index (u, v)

let build_timed fam x y = Obs.with_span sp_apply (fun () -> fam.build x y)

(* ---- incremental descriptors ---------------------------------------- *)

type cache_stats = Ch_solvers.Cache.stats = { cache_hits : int; cache_misses : int }

let no_cache_stats = { cache_hits = 0; cache_misses = 0 }

let add_cache_stats a b =
  {
    cache_hits = a.cache_hits + b.cache_hits;
    cache_misses = a.cache_misses + b.cache_misses;
  }

type prepared = {
  pbuild : Bits.t -> Bits.t -> instance;
  pverdict : Bits.t -> Bits.t -> bool;
  pstats : unit -> cache_stats;
}

type incremental = { scratch : t; prepare : unit -> prepared }

let of_family fam =
  {
    scratch = fam;
    prepare =
      (fun () ->
        {
          pbuild = fam.build;
          pverdict = (fun x y -> fam.predicate (build_timed fam x y));
          pstats = (fun () -> no_cache_stats);
        });
  }

(* ---- the pair space --------------------------------------------------- *)

type mode = Exhaustive | Sampled of { seed : int; samples : int }

let pair_count fam = function
  | Exhaustive ->
      if fam.input_bits > 10 then invalid_arg "Framework.pair_count: K > 10";
      1 lsl (2 * fam.input_bits)
  | Sampled { samples; _ } ->
      if samples < 0 then invalid_arg "Framework.pair_count: negative samples";
      samples + 4

(* Sample [i] is the pair drawn from seeds (seed + 2i, seed + 2i + 1);
   the four corner pairs come first.  The derivation depends only on the
   sample index, never on a shared RNG, so any chunk can generate its
   own samples. *)
let random_pair_at fam ~seed i =
  let k = fam.input_bits in
  match i with
  | 0 -> (Bits.zeros k, Bits.zeros k)
  | 1 -> (Bits.ones k, Bits.ones k)
  | 2 -> (Bits.ones k, Bits.zeros k)
  | 3 -> (Bits.zeros k, Bits.ones k)
  | i ->
      let i = i - 4 in
      (Bits.random ~seed:(seed + (2 * i)) k, Bits.random ~seed:(seed + (2 * i) + 1) k)

let pair_at fam = function
  | Exhaustive ->
      ignore (pair_count fam Exhaustive);
      let inputs = Array.of_list (Bits.all fam.input_bits) in
      let n = Array.length inputs in
      fun i -> (inputs.(i / n), inputs.(i mod n))
  | Sampled { seed; _ } -> random_pair_at fam ~seed

let failures fam mode verdicts =
  let pair = pair_at fam mode in
  let n = ref 0 in
  Array.iteri
    (fun i v ->
      let x, y = pair i in
      if v <> fam.f x y then incr n)
    verdicts;
  !n

(* ---- the verdict driver ----------------------------------------------- *)

type verdict_run = {
  verdicts : bool array;
  failures : int;
  stats : cache_stats;
}

(* The index range is chunked over the default domain pool (or [pool])
   and merged in range order; every pair is a pure function of its index,
   so the result is bit-identical for any CH_JOBS.  One prepared instance
   per pool worker, built by the first chunk that worker runs and reused
   by its later ones: the per-instance query scratch stays domain-local
   (two chunks never run on one worker at once) while the memoized core
   tables are shared.  Stats are read once per instance, after the run. *)
let verdicts ?pool inc mode ~lo ~hi =
  let fam = inc.scratch in
  if lo < 0 || hi < lo || hi > pair_count fam mode then
    invalid_arg "Framework.verdicts: need 0 <= lo <= hi <= pair_count";
  let pair = pair_at fam mode in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let instances = Array.make (Pool.jobs pool) None in
  let instance worker =
    match instances.(worker) with
    | Some p -> p
    | None ->
        let p = Obs.with_span sp_core inc.prepare in
        instances.(worker) <- Some p;
        p
  in
  let chunks =
    Pool.parallel_chunks pool ~lo ~hi (fun ~worker clo chi ->
        let p = instance worker in
        let bad = ref 0 in
        let v =
          Array.init (chi - clo) (fun j ->
              let x, y = pair (clo + j) in
              let v = Obs.with_span sp_solver (fun () -> p.pverdict x y) in
              if v <> fam.f x y then incr bad;
              v)
        in
        (v, !bad))
  in
  {
    verdicts = Array.concat (List.map fst chunks);
    failures = List.fold_left (fun acc (_, b) -> acc + b) 0 chunks;
    stats =
      Array.fold_left
        (fun acc -> function
          | Some p -> add_cache_stats acc (p.pstats ())
          | None -> acc)
        no_cache_stats instances;
  }

let verify_random_inc ?pool ~seed ~samples inc =
  let mode = Sampled { seed; samples } in
  let r = verdicts ?pool inc mode ~lo:0 ~hi:(pair_count inc.scratch mode) in
  ((r.failures, Array.length r.verdicts), r.stats)

(* Sample [i] uses seeds (seed + 4i .. seed + 4i + 3). *)
let check_sidedness ?pool ~seed ~samples fam =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let k = fam.input_bits in
  let sample_ok i =
    Obs.with_span sp_sided (fun () ->
        let ok = ref true in
        let x = Bits.random ~seed:(seed + (4 * i)) k in
        let x' = Bits.random ~seed:(seed + (4 * i) + 1) k in
        let y = Bits.random ~seed:(seed + (4 * i) + 2) k in
        let y' = Bits.random ~seed:(seed + (4 * i) + 3) k in
        let _, b1, c1, _, wb1 = fingerprint fam (build_timed fam x y) in
        let _, b2, c2, _, wb2 = fingerprint fam (build_timed fam x' y) in
        (* changing x must leave Bob's side and the cut untouched *)
        if not (b1 = b2 && c1 = c2 && wb1 = wb2) then ok := false;
        let a1, _, c1, wa1, _ = fingerprint fam (build_timed fam x y) in
        let a2, _, c2, wa2, _ = fingerprint fam (build_timed fam x y') in
        if not (a1 = a2 && c1 = c2 && wa1 = wa2) then ok := false;
        (* the vertex count is fixed *)
        if Graph.n (graph_of (build_timed fam x y)) <> fam.nvertices then
          ok := false;
        !ok)
  in
  let oks =
    Pool.parallel_chunks pool ~lo:0 ~hi:samples (fun ~worker:_ lo hi ->
        let ok = ref true in
        for i = lo to hi - 1 do
          if not (sample_ok i) then ok := false
        done;
        !ok)
  in
  List.for_all Fun.id oks

let lower_bound_rounds ~input_bits ~cut ~n =
  float_of_int (Commfn.cc_disj_lower_bound input_bits)
  /. (float_of_int cut *. (log (float_of_int n) /. log 2.0))

type simulation = {
  decision_correct : bool;
  cut_bits : int;
  cut_messages : int;
  rounds : int;
}

type solver =
  | Graph_solver of (Graph.t -> int)
  | Digraph_solver of (Digraph.t -> int)

let simulate_reduction ?seed ?bandwidth_factor ?partition fam ~solver ~accept x
    y =
  let open Ch_congest in
  let finish answer ~cut_bits ~cut_messages ~rounds =
    { decision_correct = accept answer = fam.f x y; cut_bits; cut_messages; rounds }
  in
  let of_cut (answer, (cs : Network.cut_stats)) =
    finish answer ~cut_bits:cs.Network.cut_bits
      ~cut_messages:cs.Network.cut_messages
      ~rounds:cs.Network.stats.Network.rounds
  in
  match (solver, fam.build x y, partition) with
  | Graph_solver f, Undirected g, None ->
      of_cut (Gather.solve_split ?seed ?bandwidth_factor ~side:fam.side g ~f)
  | Graph_solver f, Undirected g, Some partition ->
      let answer, ps =
        Gather.solve_partitioned ?seed ?bandwidth_factor ~partition g ~f
      in
      finish answer ~cut_bits:ps.Network.p_cross_bits
        ~cut_messages:ps.Network.p_cross_messages
        ~rounds:ps.Network.p_stats.Network.rounds
  | Digraph_solver f, Directed dg, None ->
      of_cut
        (Gather.solve_directed_split ?seed ?bandwidth_factor ~side:fam.side dg
           ~f)
  | Digraph_solver _, Directed _, Some _ ->
      invalid_arg
        "Framework.simulate_reduction: partitioned directed simulation is not \
         supported"
  | Graph_solver _, _, _ ->
      invalid_arg "Framework.simulate_reduction: undirected instances only"
  | Digraph_solver _, _, _ ->
      invalid_arg "Framework.simulate_reduction: directed instances only"

let reduce ~name ~transform ~nvertices ~side ~predicate fam =
  {
    name;
    params = fam.params;
    input_bits = fam.input_bits;
    nvertices;
    side;
    build = (fun x y -> transform (fam.build x y));
    predicate;
    f = fam.f;
  }
