(* Differential tests for the incremental verification engine: every
   ported family must produce bit-identical graphs and verdicts through
   the core + apply_inputs path, and every solver cache must agree with
   its from-scratch solver on random graphs. *)

open Ch_graph
open Ch_cc
open Ch_core
open Ch_lbgraphs
module Cache = Ch_solvers.Cache

let qt = QCheck_alcotest.to_alcotest

(* ---------------------------------------------------------------- *)
(* Family differentials                                             *)
(* ---------------------------------------------------------------- *)

(* A deterministic mix of corner and random input pairs, applied in
   sequence so the remove-previous/add-next patching path is exercised,
   not just the first application. *)
let sample_pairs ~input_bits ~samples =
  let corners =
    [
      (Bits.zeros input_bits, Bits.zeros input_bits);
      (Bits.ones input_bits, Bits.ones input_bits);
      (Bits.ones input_bits, Bits.zeros input_bits);
      (Bits.zeros input_bits, Bits.ones input_bits);
    ]
  in
  corners
  @ List.init samples (fun i ->
        ( Bits.random ~seed:(7000 + (2 * i)) input_bits,
          Bits.random ~seed:(7000 + (2 * i) + 1) input_bits ))

(* The patched graph must equal the from-scratch build structurally at
   every step of a pair sequence reusing one core. *)
let check_graph_sequence name fam (apply : Bits.t -> Bits.t -> Graph.t) pairs =
  List.iteri
    (fun i (x, y) ->
      let patched = apply x y in
      let fresh = Framework.graph_of (fam.Framework.build x y) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: graph differential at pair %d" name i)
        true
        (Graph.equal_structure patched fresh))
    pairs

let test_mds_graphs () =
  let fam = Mds_lb.family ~k:2 in
  let c = Mds_lb.build_core ~k:2 in
  check_graph_sequence "mds" fam
    (Mds_lb.apply_inputs c)
    (sample_pairs ~input_bits:4 ~samples:12)

let test_maxis_graphs () =
  let fam = Maxis_lb.family ~k:2 in
  let c = Maxis_lb.build_core ~k:2 in
  check_graph_sequence "maxis" fam
    (Maxis_lb.apply_inputs c)
    (sample_pairs ~input_bits:4 ~samples:12)

let test_maxcut_graphs () =
  let fam = Maxcut_lb.family ~k:2 in
  let c = Maxcut_lb.build_core ~k:2 in
  check_graph_sequence "maxcut" fam
    (Maxcut_lb.apply_inputs c)
    (sample_pairs ~input_bits:4 ~samples:12)

let test_steiner_graphs () =
  let fam = Steiner_lb.family ~k:2 in
  let c = Steiner_lb.build_core ~k:2 in
  check_graph_sequence "steiner" fam
    (Steiner_lb.apply_inputs c)
    (sample_pairs ~input_bits:4 ~samples:12)

(* Cheap solvers: compare the full 2^K × 2^K verdict trace pair by
   pair.  This is the PR's acceptance differential at k = 2. *)
let run ?pool inc mode =
  Framework.verdicts ?pool inc mode ~lo:0
    ~hi:(Framework.pair_count inc.Framework.scratch mode)

let counts r = (r.Framework.failures, Array.length r.Framework.verdicts)

let check_exhaustive name inc =
  let scratch = run (Framework.of_family inc.Framework.scratch) Framework.Exhaustive in
  let incr = run inc Framework.Exhaustive in
  Alcotest.(check (array bool)) (name ^ ": exhaustive verdicts")
    scratch.Framework.verdicts incr.Framework.verdicts;
  let stats = incr.Framework.stats in
  Alcotest.(check bool)
    (name ^ ": stats are non-negative")
    true
    (stats.Framework.cache_hits >= 0 && stats.Framework.cache_misses >= 0)

let test_mds_exhaustive () =
  Cache.clear ();
  let inc = Mds_lb.incremental ~k:2 in
  check_exhaustive "mds" inc;
  (* k = 2 is 256 pairs; every pair queries the ball cache *)
  let stats = (run inc Framework.Exhaustive).Framework.stats in
  Alcotest.(check bool)
    "mds: per-pair cache hits" true
    (stats.Framework.cache_hits >= 256)

let test_maxis_exhaustive () =
  check_exhaustive "maxis" (Maxis_lb.incremental ~k:2)

let test_maxcut_exhaustive () =
  Cache.clear ();
  check_exhaustive "maxcut" (Maxcut_lb.incremental ~k:2)

(* Steiner's from-scratch solve is ~0.2 s per pair, so the exhaustive
   trace is differenced in the bench harness; here corners + random
   pairs keep the suite fast. *)
let check_sampled name inc pairs =
  let fam = inc.Framework.scratch in
  let p = inc.Framework.prepare () in
  List.iteri
    (fun i (x, y) ->
      let scratch = fam.Framework.predicate (fam.Framework.build x y) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: verdict differential at pair %d" name i)
        scratch
        (p.Framework.pverdict x y))
    pairs

let test_steiner_sampled () =
  Cache.clear ();
  check_sampled "steiner" (Steiner_lb.incremental ~k:2)
    (sample_pairs ~input_bits:4 ~samples:8)

let test_maxcut_sampled () =
  Cache.clear ();
  check_sampled "maxcut" (Maxcut_lb.incremental ~k:2)
    (sample_pairs ~input_bits:4 ~samples:16)

let test_hampath_exhaustive () =
  Cache.clear ();
  check_exhaustive "hampath" (Hampath_lb.incremental ~k:2)

(* The degenerate of_family descriptor must count like the scratch
   family's own predicate, and report no cache activity. *)
let test_of_family () =
  let fam = Mds_lb.family ~k:2 in
  let r = run (Framework.of_family fam) Framework.Exhaustive in
  let direct =
    List.length
      (List.filter
         (fun (x, y) ->
           fam.Framework.predicate (fam.Framework.build x y) <> fam.Framework.f x y)
         (List.init 256 (Framework.pair_at fam Framework.Exhaustive)))
  in
  let stats = r.Framework.stats in
  Alcotest.(check (pair int int)) "of_family counts" (direct, 256) (counts r);
  Alcotest.(check (pair int int))
    "of_family reports no cache activity" (0, 0)
    (stats.Framework.cache_hits, stats.Framework.cache_misses)

let test_verify_counts () =
  let inc = Mds_lb.incremental ~k:2 in
  let scratch_inc = Framework.of_family inc.Framework.scratch in
  Alcotest.(check (pair int int)) "exhaustive counts"
    (counts (run scratch_inc Framework.Exhaustive))
    (counts (run inc Framework.Exhaustive));
  let mode = Framework.Sampled { seed = 42; samples = 50 } in
  let incr_r, _ = Framework.verify_random_inc ~seed:42 ~samples:50 inc in
  Alcotest.(check (pair int int)) "random counts"
    (counts (run scratch_inc mode)) incr_r

(* ---------------------------------------------------------------- *)
(* Solver caches vs from-scratch solvers on random graphs           *)
(* ---------------------------------------------------------------- *)

(* Random extra edges among the non-adjacent pairs of [allowed]. *)
let random_extra ~seed g allowed =
  let non_edges =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun v ->
            if u < v && not (Graph.mem_edge g u v) then Some (u, v) else None)
          allowed)
      allowed
  in
  let st = Random.State.make [| seed |] in
  List.filter (fun _ -> Random.State.bool st) non_edges

let prop_steiner_cache =
  QCheck.Test.make ~count:60 ~name:"Cache.steiner_min_extra = Steiner.min_extra_nodes"
    QCheck.(pair (int_range 3 9) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed n 0.3 in
      let nterm = 2 + (seed mod (n - 1)) in
      let terminals = List.init (min nterm n) Fun.id in
      let cap = seed mod 4 in
      let extra = random_extra ~seed:(seed + 1) g (List.init n Fun.id) in
      let g' = Graph.copy g in
      List.iter (fun (u, v) -> Graph.add_edge g' u v) extra;
      Cache.clear ();
      let c = Cache.steiner_prepare g ~terminals ~cap in
      Cache.steiner_min_extra c ~extra
      = Ch_solvers.Steiner.min_extra_nodes ~cap g' terminals)

let prop_maxcut_cache =
  QCheck.Test.make ~count:60 ~name:"Cache.maxcut_max = Maxcut.max_cut"
    QCheck.(pair (int_range 2 9) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Gen.random_weights ~seed (Gen.gnp ~seed n 0.4) in
      let volatile = List.init ((n / 2) + 1) Fun.id in
      let extra =
        List.mapi
          (fun i (u, v) -> (u, v, 1 + ((seed + i) mod 7)))
          (random_extra ~seed:(seed + 1) g volatile)
      in
      let g' = Graph.copy g in
      List.iter (fun (u, v, w) -> Graph.add_edge ~w g' u v) extra;
      Cache.clear ();
      let c = Cache.maxcut_prepare g ~volatile in
      Cache.maxcut_max c ~extra = fst (Ch_solvers.Maxcut.max_cut g'))

let prop_mis_cache =
  QCheck.Test.make ~count:60 ~name:"Cache.mis_alpha = Mis.alpha"
    QCheck.(pair (int_range 2 10) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed n 0.35 in
      let volatile = List.init ((n / 2) + 1) Fun.id in
      let extra = random_extra ~seed:(seed + 1) g volatile in
      let g' = Graph.copy g in
      List.iter (fun (u, v) -> Graph.add_edge g' u v) extra;
      Cache.clear ();
      let c = Cache.mis_prepare g ~volatile in
      Cache.mis_alpha c ~extra = Ch_solvers.Mis.alpha g')

let prop_mwis_cache =
  QCheck.Test.make ~count:60 ~name:"Cache.mwis_weight = Mis.max_weight_set"
    QCheck.(pair (int_range 2 10) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed n 0.35 in
      let rng = Random.State.make [| seed; 41 |] in
      for v = 0 to n - 1 do
        Graph.set_vweight g v (Random.State.int rng 9)
      done;
      let volatile = List.init ((n / 2) + 1) Fun.id in
      let extra = random_extra ~seed:(seed + 1) g volatile in
      let g' = Graph.copy g in
      List.iter (fun (u, v) -> Graph.add_edge g' u v) extra;
      Cache.clear ();
      let c = Cache.mwis_prepare g ~volatile in
      Cache.mwis_weight c ~extra = fst (Ch_solvers.Mis.max_weight_set g'))

(* Weights-only queries: the topology is the core's, the vertex weights
   are the per-query input. *)
let prop_nwsteiner_cache =
  QCheck.Test.make ~count:60 ~name:"Cache.nwsteiner_cost = Steiner.node_weighted"
    QCheck.(pair (int_range 2 11) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Gen.random_connected ~seed n 0.3 in
      let rng = Random.State.make [| seed; 43 |] in
      let terminals =
        List.sort_uniq compare
          (List.init (1 + Random.State.int rng 3) (fun _ -> Random.State.int rng n))
      in
      let weights = Array.init n (fun _ -> Random.State.int rng 9) in
      let g' = Graph.copy g in
      Array.iteri (Graph.set_vweight g') weights;
      Cache.clear ();
      let c = Cache.nwsteiner_prepare g ~terminals in
      Cache.nwsteiner_cost c ~weights = Ch_solvers.Steiner.node_weighted g' terminals)

(* The decision form: with [~stop_at:b] drawn around the true maximum,
   the result is exact below [b] and at least [b] (and still a real cut
   value, so never above the maximum) otherwise. *)
let prop_maxcut_stop_at =
  QCheck.Test.make ~count:80 ~name:"Cache.maxcut_max ~stop_at decides against Maxcut.max_cut"
    QCheck.(pair (int_range 2 9) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Gen.random_weights ~seed (Gen.gnp ~seed n 0.4) in
      let volatile = List.init ((n / 2) + 1) Fun.id in
      let extra =
        List.mapi
          (fun i (u, v) -> (u, v, 1 + ((seed + i) mod 7)))
          (random_extra ~seed:(seed + 1) g volatile)
      in
      let g' = Graph.copy g in
      List.iter (fun (u, v, w) -> Graph.add_edge ~w g' u v) extra;
      let best = fst (Ch_solvers.Maxcut.max_cut g') in
      let rng = Random.State.make [| seed; 59 |] in
      let stop_at = best - 3 + Random.State.int rng 7 in
      Cache.clear ();
      let c = Cache.maxcut_prepare g ~volatile in
      let r = Cache.maxcut_max ~stop_at c ~extra in
      if best < stop_at then r = best else r >= stop_at && r <= best)

(* Zero weights make many connector sets tie, so the minimum must not
   depend on which feasible set the scan meets first. *)
let prop_nwsteiner_zero_weights =
  QCheck.Test.make ~count:60 ~name:"Cache.nwsteiner_cost with zero-weight vertices"
    QCheck.(pair (int_range 2 11) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Gen.random_connected ~seed n 0.3 in
      let rng = Random.State.make [| seed; 61 |] in
      let terminals =
        List.sort_uniq compare
          (List.init (1 + Random.State.int rng 3) (fun _ -> Random.State.int rng n))
      in
      let weights =
        Array.init n (fun _ ->
            if Random.State.int rng 3 = 0 then 1 + Random.State.int rng 5 else 0)
      in
      let g' = Graph.copy g in
      Array.iteri (Graph.set_vweight g') weights;
      Cache.clear ();
      let c = Cache.nwsteiner_prepare g ~terminals in
      Cache.nwsteiner_cost c ~weights = Ch_solvers.Steiner.node_weighted g' terminals)

(* Terminals in two components: the cache raises exactly the
   from-scratch solver's [Invalid_argument]. *)
let prop_nwsteiner_disconnected =
  QCheck.Test.make ~count:40 ~name:"Cache.nwsteiner_cost raises like Steiner.node_weighted"
    QCheck.(triple (int_range 1 6) (int_range 1 6) (int_range 0 10_000))
    (fun (na, nb, seed) ->
      let g =
        Graph.union_disjoint
          (Gen.random_connected ~seed na 0.4)
          (Gen.random_connected ~seed:(seed + 1) nb 0.4)
      in
      let rng = Random.State.make [| seed; 67 |] in
      let terminals = [ Random.State.int rng na; na + Random.State.int rng nb ] in
      let weights = Array.init (na + nb) (fun _ -> Random.State.int rng 9) in
      let g' = Graph.copy g in
      Array.iteri (Graph.set_vweight g') weights;
      let raised f = match f () with _ -> None | exception Invalid_argument m -> Some m in
      Cache.clear ();
      let c = Cache.nwsteiner_prepare g ~terminals in
      let expected = raised (fun () -> Ch_solvers.Steiner.node_weighted g' terminals) in
      expected <> None && raised (fun () -> Cache.nwsteiner_cost c ~weights) = expected)

(* Extra arcs are random weighted non-arcs of the core; the cutoff is
   drawn around the unbounded optimum so both decision outcomes occur. *)
let prop_dsteiner_cache =
  QCheck.Test.make ~count:60 ~name:"Cache.dsteiner_cost = Steiner.directed"
    QCheck.(pair (int_range 2 8) (int_range 0 10_000))
    (fun (n, seed) ->
      let dg = Gen.random_digraph ~seed n 0.3 in
      let rng = Random.State.make [| seed; 47 |] in
      let terminals =
        List.sort_uniq compare (List.init (min n 3) (fun _ -> Random.State.int rng n))
      in
      let root = List.hd terminals in
      let extra =
        List.concat_map
          (fun u ->
            List.filter_map
              (fun v ->
                if u <> v && (not (Digraph.mem_arc dg u v)) && Random.State.int rng 4 = 0
                then Some (u, v, 1 + Random.State.int rng 5)
                else None)
              (List.init n Fun.id))
          (List.init n Fun.id)
      in
      let dg' = Digraph.copy dg in
      List.iter (fun (u, v, w) -> Digraph.add_arc ~w dg' u v) extra;
      let scratch = Ch_solvers.Steiner.directed dg' ~root terminals in
      let cutoff =
        match scratch with
        | Some c -> Random.State.int rng (c + 3) - 1
        | None -> Random.State.int rng 6
      in
      Cache.clear ();
      let c = Cache.dsteiner_prepare dg ~root ~terminals in
      Cache.dsteiner_cost c ~extra = scratch
      && Cache.dsteiner_cost ~cutoff c ~extra
         = Ch_solvers.Steiner.directed ~cutoff dg' ~root terminals)

let prop_domset_cache =
  QCheck.Test.make ~count:60 ~name:"Domset.min_size ~balls:(Cache.domset_balls) = plain"
    QCheck.(pair (int_range 2 10) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed n 0.3 in
      let extra = random_extra ~seed:(seed + 1) g (List.init n Fun.id) in
      let g' = Graph.copy g in
      List.iter (fun (u, v) -> Graph.add_edge g' u v) extra;
      Cache.clear ();
      let c = Cache.domset_prepare g ~radius:1 in
      let balls = Cache.domset_balls c ~extra in
      Ch_solvers.Domset.min_size ~balls g' = Ch_solvers.Domset.min_size g')

(* ---------------------------------------------------------------- *)
(* Memoization behavior                                             *)
(* ---------------------------------------------------------------- *)

let test_memo_counters () =
  Cache.clear ();
  let g = Mds_lb.core_graph ~k:2 in
  let c1 = Cache.domset_prepare g ~radius:1 in
  let s1 = Cache.domset_stats c1 in
  Alcotest.(check (pair int int))
    "first prepare is a miss" (0, 1)
    (s1.Cache.cache_hits, s1.Cache.cache_misses);
  (* a structurally equal but physically distinct graph must hit *)
  let c2 = Cache.domset_prepare (Mds_lb.core_graph ~k:2) ~radius:1 in
  let s2 = Cache.domset_stats c2 in
  Alcotest.(check (pair int int))
    "memoized prepare is a hit" (1, 0)
    (s2.Cache.cache_hits, s2.Cache.cache_misses);
  ignore (Cache.domset_balls c2 ~extra:[]);
  let s3 = Cache.domset_stats c2 in
  Alcotest.(check int) "queries count as hits" 2 s3.Cache.cache_hits;
  Cache.clear ();
  let c4 = Cache.domset_prepare g ~radius:1 in
  let s4 = Cache.domset_stats c4 in
  Alcotest.(check (pair int int))
    "clear drops the memo" (0, 1)
    (s4.Cache.cache_hits, s4.Cache.cache_misses)

let test_memo_aux_keying () =
  Cache.clear ();
  let g = Mds_lb.core_graph ~k:2 in
  let _ = Cache.steiner_prepare g ~terminals:[ 0; 1 ] ~cap:1 in
  (* same graph, different parameters: must rebuild, not hit *)
  let c = Cache.steiner_prepare g ~terminals:[ 0; 1; 2 ] ~cap:1 in
  let s = Cache.steiner_stats c in
  Alcotest.(check (pair int int))
    "different terminals miss" (0, 1)
    (s.Cache.cache_hits, s.Cache.cache_misses);
  let c' = Cache.steiner_prepare g ~terminals:[ 0; 1 ] ~cap:2 in
  let s' = Cache.steiner_stats c' in
  Alcotest.(check (pair int int))
    "different cap misses" (0, 1)
    (s'.Cache.cache_hits, s'.Cache.cache_misses)

(* ---------------------------------------------------------------- *)
(* Seed derivation: sampled verification is schedule-independent    *)
(* ---------------------------------------------------------------- *)

(* A deliberately broken family (predicate always TRUE) makes the
   failure count non-trivial: it fails exactly on the non-intersecting
   pairs.  The expected count is recomputed here straight from the
   documented derivation — corners first, then sample i drawn from
   seeds (seed + 2i, seed + 2i + 1) — and must match under any worker
   count, pinning both the sampling-with-replacement semantics and the
   per-index seed scheme. *)
let test_seed_derivation () =
  let base = Mds_lb.family ~k:2 in
  let broken = { base with Framework.predicate = (fun _ -> true) } in
  let seed = 1234 and samples = 200 in
  let k = broken.Framework.input_bits in
  let corners =
    [
      (Bits.zeros k, Bits.zeros k);
      (Bits.ones k, Bits.ones k);
      (Bits.ones k, Bits.zeros k);
      (Bits.zeros k, Bits.ones k);
    ]
  in
  let drawn =
    corners
    @ List.init samples (fun i ->
          ( Bits.random ~seed:(seed + (2 * i)) k,
            Bits.random ~seed:(seed + (2 * i) + 1) k ))
  in
  let expected =
    List.length
      (List.filter (fun (x, y) -> not (broken.Framework.f x y)) drawn)
  in
  let p1 = Pool.create ~jobs:1 () in
  let p4 = Pool.create ~jobs:4 () in
  let mode = Framework.Sampled { seed; samples } in
  let f1, t1 = counts (run ~pool:p1 (Framework.of_family broken) mode) in
  let f4, t4 = counts (run ~pool:p4 (Framework.of_family broken) mode) in
  Pool.shutdown p1;
  Pool.shutdown p4;
  Alcotest.(check (pair int int)) "1 worker matches the formula"
    (expected, samples + 4) (f1, t1);
  Alcotest.(check (pair int int)) "4 workers match the formula"
    (expected, samples + 4) (f4, t4)

(* [Framework.verdicts] prepares one instance per pool worker, not one
   per chunk: exactly once on a one-worker pool (which still runs
   several chunks), at most four times on a four-worker pool, with the
   same verdicts and failures either way. *)
let test_prepare_count () =
  let base = Mds_lb.incremental ~k:2 in
  let prepares = Atomic.make 0 in
  let inc =
    {
      base with
      Framework.prepare =
        (fun () ->
          Atomic.incr prepares;
          base.Framework.prepare ());
    }
  in
  let p1 = Pool.create ~jobs:1 () in
  let p4 = Pool.create ~jobs:4 () in
  List.iter
    (fun (label, mode) ->
      let counted pool =
        Atomic.set prepares 0;
        let r = run ~pool inc mode in
        (r, Atomic.get prepares)
      in
      let r1, n1 = counted p1 in
      let r4, n4 = counted p4 in
      Alcotest.(check int) (label ^ ": one worker prepares once") 1 n1;
      Alcotest.(check bool) (label ^ ": four workers prepare at most 4 times")
        true
        (n4 >= 1 && n4 <= 4);
      Alcotest.(check (array bool)) (label ^ ": verdicts") r1.Framework.verdicts
        r4.Framework.verdicts;
      Alcotest.(check int) (label ^ ": failures") r1.Framework.failures
        r4.Framework.failures)
    [
      ("exhaustive", Framework.Exhaustive);
      ("sampled", Framework.Sampled { seed = 17; samples = 60 });
    ];
  Pool.shutdown p1;
  Pool.shutdown p4

let () =
  Alcotest.run "incremental"
    [
      ( "graph differentials",
        [
          Alcotest.test_case "mds core+inputs = build" `Quick test_mds_graphs;
          Alcotest.test_case "maxis core+inputs = build" `Quick test_maxis_graphs;
          Alcotest.test_case "maxcut core+inputs = build" `Quick
            test_maxcut_graphs;
          Alcotest.test_case "steiner core+inputs = build" `Quick
            test_steiner_graphs;
        ] );
      ( "verdict differentials",
        [
          Alcotest.test_case "mds exhaustive" `Quick test_mds_exhaustive;
          Alcotest.test_case "maxis exhaustive" `Quick test_maxis_exhaustive;
          Alcotest.test_case "maxcut exhaustive" `Slow test_maxcut_exhaustive;
          Alcotest.test_case "steiner sampled" `Slow test_steiner_sampled;
          Alcotest.test_case "maxcut sampled" `Quick test_maxcut_sampled;
          Alcotest.test_case "hampath exhaustive" `Slow test_hampath_exhaustive;
          Alcotest.test_case "of_family fallback" `Quick test_of_family;
          Alcotest.test_case "verifier counts" `Quick test_verify_counts;
        ] );
      ( "solver caches",
        [
          qt prop_steiner_cache;
          qt prop_maxcut_cache;
          qt prop_maxcut_stop_at;
          qt prop_mis_cache;
          qt prop_mwis_cache;
          qt prop_nwsteiner_cache;
          qt prop_nwsteiner_zero_weights;
          qt prop_nwsteiner_disconnected;
          qt prop_dsteiner_cache;
          qt prop_domset_cache;
        ] );
      ( "memoization",
        [
          Alcotest.test_case "hit/miss counters" `Quick test_memo_counters;
          Alcotest.test_case "aux keying" `Quick test_memo_aux_keying;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seed derivation" `Quick test_seed_derivation;
          Alcotest.test_case "one prepare per worker" `Quick test_prepare_count;
        ] );
    ]
