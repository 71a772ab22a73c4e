open Ch_graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Bitset                                                             *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  check "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  check_int "cardinal" 4 (Bitset.cardinal s);
  check "mem 63" true (Bitset.mem s 63);
  check "mem 64" true (Bitset.mem s 64);
  check "not mem 1" false (Bitset.mem s 1);
  Bitset.remove s 63;
  check "removed" false (Bitset.mem s 63);
  check_int "choose" 0 (Bitset.choose s);
  check_int "elements" 3 (List.length (Bitset.elements s))

let test_bitset_full () =
  let s = Bitset.full 70 in
  check_int "cardinal full" 70 (Bitset.cardinal s);
  check "mem last" true (Bitset.mem s 69);
  let t = Bitset.create 70 in
  Bitset.add t 5;
  check "subset" true (Bitset.subset t s);
  check "not subset" false (Bitset.subset s t)

let test_bitset_ops () =
  let a = Bitset.of_list 128 [ 1; 2; 3; 100 ] in
  let b = Bitset.of_list 128 [ 2; 3; 4; 127 ] in
  check_int "inter" 2 (Bitset.cardinal (Bitset.inter a b));
  check_int "union" 6 (Bitset.cardinal (Bitset.union a b));
  check_int "diff" 2 (Bitset.cardinal (Bitset.diff a b));
  check_int "inter_cardinal" 2 (Bitset.inter_cardinal a b);
  check "intersects" true (Bitset.intersects a b);
  check "no intersect" false
    (Bitset.intersects a (Bitset.of_list 128 [ 0; 5 ]))

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset of_list/elements roundtrip" ~count:200
    QCheck.(list (int_bound 199))
    (fun items ->
      let sorted = List.sort_uniq compare items in
      let s = Bitset.of_list 200 items in
      Bitset.elements s = sorted && Bitset.cardinal s = List.length sorted)

let prop_bitset_demorgan =
  QCheck.Test.make ~name:"bitset de morgan" ~count:200
    QCheck.(pair (list (int_bound 99)) (list (int_bound 99)))
    (fun (xs, ys) ->
      let full = Bitset.full 100 in
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      let lhs = Bitset.diff full (Bitset.union a b) in
      let rhs = Bitset.inter (Bitset.diff full a) (Bitset.diff full b) in
      Bitset.equal lhs rhs)

(* The word-level iter/fold against a naive per-index reference, at
   capacities straddling the 63-bit word boundary and on the empty /
   full / sparse shapes the solvers produce. *)

let boundary_capacities = [ 0; 1; 31; 62; 63; 64; 65; 125; 126; 127; 200 ]

let naive_elements s =
  List.filter (Bitset.mem s) (List.init (Bitset.capacity s) Fun.id)

let iter_elements s =
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) s;
  List.rev !acc

let agrees_with_naive s =
  let reference = naive_elements s in
  iter_elements s = reference
  && Bitset.fold (fun i acc -> i :: acc) s [] = List.rev reference
  && Bitset.elements s = reference
  && Bitset.cardinal s = List.length reference
  && Bitset.is_empty s = (reference = [])
  && (reference = [] || Bitset.choose s = List.hd reference)

let test_bitset_scan_boundaries () =
  List.iter
    (fun cap ->
      let name shape = Printf.sprintf "%s capacity %d" shape cap in
      check (name "empty") true (agrees_with_naive (Bitset.create cap));
      check (name "full") true (agrees_with_naive (Bitset.full cap));
      (* every k-th element exercises runs of zero words *)
      List.iter
        (fun k ->
          let s = Bitset.create cap in
          let rec fill i = if i < cap then (Bitset.add s i; fill (i + k)) in
          fill 0;
          check (name (Printf.sprintf "stride-%d" k)) true (agrees_with_naive s))
        [ 1; 2; 63; 64; 100 ])
    boundary_capacities

let prop_bitset_scan =
  QCheck.Test.make ~name:"bitset iter/fold match naive reference" ~count:300
    QCheck.(pair (int_range 0 10) (list (int_bound 199)))
    (fun (cap_idx, items) ->
      let cap = List.nth boundary_capacities cap_idx in
      let s = Bitset.of_list cap (List.filter (fun i -> i < cap) items) in
      agrees_with_naive s)

(* ------------------------------------------------------------------ *)
(* Graph                                                              *)
(* ------------------------------------------------------------------ *)

let test_graph_basic () =
  let g = Graph.create 5 in
  Graph.add_edge g 0 1;
  Graph.add_edge ~w:7 g 1 2;
  check_int "n" 5 (Graph.n g);
  check_int "m" 2 (Graph.m g);
  check "mem" true (Graph.mem_edge g 1 0);
  check_int "weight" 7 (Graph.edge_weight g 2 1);
  check_int "deg" 2 (Graph.degree g 1);
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self loop")
    (fun () -> Graph.add_edge g 3 3);
  Alcotest.check_raises "dup" (Invalid_argument "Graph.add_edge: duplicate edge (0,1)")
    (fun () -> Graph.add_edge g 0 1);
  Graph.remove_edge g 0 1;
  check_int "m after remove" 1 (Graph.m g);
  check "removed" false (Graph.mem_edge g 0 1)

let test_graph_induced () =
  let g = Gen.clique 5 in
  let sub, map = Graph.induced g [ 0; 2; 4 ] in
  check_int "induced n" 3 (Graph.n sub);
  check_int "induced m" 3 (Graph.m sub);
  check_int "map" 4 map.(2)

let test_graph_union () =
  let g = Graph.union_disjoint (Gen.clique 3) (Gen.path 4) in
  check_int "n" 7 (Graph.n g);
  check_int "m" 6 (Graph.m g);
  check "cross edge absent" false (Graph.mem_edge g 2 3)

let test_graph_adjacency () =
  let g = Gen.cycle 5 in
  let adj = Graph.adjacency g in
  check_int "deg via bitset" 2 (Bitset.cardinal adj.(0));
  check "adj 0-1" true (Bitset.mem adj.(0) 1);
  check "adj 0-4" true (Bitset.mem adj.(0) 4);
  let cadj = Graph.closed_adjacency g in
  check "closed contains self" true (Bitset.mem cadj.(3) 3)


let test_to_dot () =
  let g = Gen.cycle 4 in
  Graph.set_vweight g 0 7;
  let dot = Graph.to_dot ~highlight:[ 1 ] g in
  check "graph header" true (String.length dot > 0 && String.sub dot 0 5 = "graph");
  check "edge present" true
    (let needle = "0 -- 1" in
     let rec find i =
       i + String.length needle <= String.length dot
       && (String.sub dot i (String.length needle) = needle || find (i + 1))
     in
     find 0);
  let dg = Digraph.of_arcs 3 [ (0, 1); (2, 1) ] in
  let ddot = Digraph.to_dot dg in
  check "digraph header" true (String.sub ddot 0 7 = "digraph")

(* ------------------------------------------------------------------ *)
(* Digraph                                                            *)
(* ------------------------------------------------------------------ *)

let test_digraph_basic () =
  let g = Digraph.create 4 in
  Digraph.add_arc g 0 1;
  Digraph.add_arc g 1 0;
  Digraph.add_arc ~w:3 g 1 2;
  check_int "m" 3 (Digraph.m g);
  check "mem" true (Digraph.mem_arc g 0 1);
  check "antiparallel" true (Digraph.mem_arc g 1 0);
  check "directedness" false (Digraph.mem_arc g 2 1);
  check_int "succ" 2 (List.length (Digraph.succ g 1));
  check_int "pred" 1 (List.length (Digraph.pred g 2));
  check_int "out deg" 2 (Digraph.out_degree g 1);
  check_int "in deg" 1 (Digraph.in_degree g 1);
  let u = Digraph.to_undirected g in
  check_int "undirected m" 2 (Graph.m u)

(* ------------------------------------------------------------------ *)
(* Generators & Props                                                 *)
(* ------------------------------------------------------------------ *)

let test_gen_counts () =
  check_int "path m" 9 (Graph.m (Gen.path 10));
  check_int "cycle m" 10 (Graph.m (Gen.cycle 10));
  check_int "clique m" 45 (Graph.m (Gen.clique 10));
  check_int "bipartite m" 12 (Graph.m (Gen.complete_bipartite 3 4));
  check_int "star m" 7 (Graph.m (Gen.star 8));
  check_int "grid m" 12 (Graph.m (Gen.grid 3 3));
  check_int "gnm m" 20 (Graph.m (Gen.gnm ~seed:3 15 20))

let test_gen_regular () =
  match Gen.random_regular ~seed:11 10 3 with
  | None -> Alcotest.fail "regular generation failed"
  | Some g ->
      for v = 0 to 9 do
        check_int "regular degree" 3 (Graph.degree g v)
      done

let test_props_bfs () =
  let g = Gen.path 6 in
  let dist = Props.bfs_dist g 0 in
  check_int "dist end" 5 dist.(5);
  check_int "diameter path" 5 (Props.diameter g);
  check_int "ecc middle" 3 (Props.eccentricity g 2);
  let parent = Props.bfs_tree g 0 in
  check_int "parent" 1 parent.(2)

let test_props_connectivity () =
  let g = Graph.union_disjoint (Gen.clique 3) (Gen.clique 3) in
  check "disconnected" false (Props.connected g);
  let _, c = Props.components g in
  check_int "components" 2 c;
  check "connected clique" true (Props.connected (Gen.clique 4))

let test_props_bipartite () =
  check "cycle4 bipartite" true (Props.is_bipartite (Gen.cycle 4));
  check "cycle5 not bipartite" false (Props.is_bipartite (Gen.cycle 5));
  check "grid bipartite" true (Props.is_bipartite (Gen.grid 3 4))

let test_props_bridges () =
  let g = Gen.path 4 in
  check_int "path bridges" 3 (List.length (Props.bridges g));
  check "cycle 2ec" true (Props.is_two_edge_connected (Gen.cycle 5));
  check "path not 2ec" false (Props.is_two_edge_connected (Gen.path 5));
  let g = Graph.create 5 in
  (* triangle with a pendant path *)
  List.iter (fun (u, v) -> Graph.add_edge g u v)
    [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4) ];
  check "bridges of lollipop" true
    (Props.bridges g = [ (2, 3); (3, 4) ])

let test_props_dijkstra () =
  let g = Graph.create 4 in
  Graph.add_edge ~w:10 g 0 3;
  Graph.add_edge ~w:1 g 0 1;
  Graph.add_edge ~w:1 g 1 2;
  Graph.add_edge ~w:1 g 2 3;
  let dist = Props.dijkstra g 0 in
  check_int "shortcut" 3 dist.(3)

let test_props_tree () =
  check "path is tree" true (Props.is_tree (Gen.path 5));
  check "cycle not tree" false (Props.is_tree (Gen.cycle 5));
  check "forest" true
    (Props.is_forest (Graph.union_disjoint (Gen.path 3) (Gen.path 4)))

let test_props_strongly_connected () =
  let g = Digraph.of_arcs 3 [ (0, 1); (1, 2); (2, 0) ] in
  check "dicycle strong" true (Props.strongly_connected g);
  let g = Digraph.of_arcs 3 [ (0, 1); (1, 2) ] in
  check "dipath not strong" false (Props.strongly_connected g)

let test_props_ball () =
  let g = Gen.path 7 in
  let ball = Props.reachable_within g 3 ~radius:2 in
  check_int "ball size" 5 (Bitset.cardinal ball);
  check "ball member" true (Bitset.mem ball 1);
  check "ball excludes" false (Bitset.mem ball 0)

(* ------------------------------------------------------------------ *)
(* Expander gadget                                                    *)
(* ------------------------------------------------------------------ *)

let test_expander_small () =
  List.iter
    (fun d ->
      let e = Expander.build d in
      check "certified" true e.Expander.certified;
      Array.iter
        (fun v -> check_int "distinguished degree 2" 2 (Graph.degree e.Expander.graph v))
        e.Expander.distinguished;
      check "max degree <= 4" true (Graph.max_degree e.Expander.graph <= 4);
      check "connected" true (Props.connected e.Expander.graph))
    [ 1; 2; 3; 4; 5; 6 ]

let prop_gnp_simple =
  QCheck.Test.make ~name:"gnp produces simple graphs" ~count:50
    QCheck.(pair (int_range 1 20) (int_bound 1000))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed n 0.3 in
      List.for_all (fun (u, v, _) -> u < v && u >= 0 && v < n) (Graph.edges g))

let prop_induced_subgraph =
  QCheck.Test.make ~name:"induced subgraph edges come from parent" ~count:100
    QCheck.(pair (int_bound 1000) (list (int_bound 11)))
    (fun (seed, vs) ->
      let g = Gen.gnp ~seed 12 0.4 in
      let sub, map = Graph.induced g vs in
      List.for_all
        (fun (u, v, _) -> Graph.mem_edge g map.(u) map.(v))
        (Graph.edges sub))

let prop_components_partition =
  QCheck.Test.make ~name:"components partition respects edges" ~count:100
    QCheck.(int_bound 1000)
    (fun seed ->
      let g = Gen.gnp ~seed 15 0.1 in
      let comp, _ = Props.components g in
      List.for_all (fun (u, v, _) -> comp.(u) = comp.(v)) (Graph.edges g))

(* [Graph.edges] is the sorted list of what [iter_edges] visits. *)
let prop_edges_sorted =
  QCheck.Test.make ~name:"edges = sorted iter_edges" ~count:100
    QCheck.(pair (int_range 1 20) (int_bound 10_000))
    (fun (n, seed) ->
      let g = Gen.random_weights ~seed (Gen.gnp ~seed n 0.3) in
      let acc = ref [] in
      Graph.iter_edges (fun u v w -> acc := (u, v, w) :: !acc) g;
      Graph.edges g = List.sort compare !acc)

(* [Graph.equal_structure] against its definition: same n, vertex
   weights and sorted weighted edge list.  Each case builds a second
   graph from the first's edges inserted in a shuffled order, then
   optionally perturbs one edge weight, one vertex weight, or moves one
   edge to a non-edge (same m, different edge set). *)
let prop_equal_structure =
  let by_definition a b =
    Graph.n a = Graph.n b
    && Graph.vweights a = Graph.vweights b
    && Graph.edges a = Graph.edges b
  in
  QCheck.Test.make ~name:"equal_structure = sorted-edge-list equality" ~count:200
    QCheck.(triple (int_range 2 14) (int_bound 10_000) (int_bound 3))
    (fun (n, seed, perturb) ->
      let g = Gen.random_weights ~seed (Gen.gnp ~seed n 0.4) in
      let rng = Random.State.make [| seed; 53 |] in
      for v = 0 to n - 1 do
        Graph.set_vweight g v (Random.State.int rng 5)
      done;
      let edges = Array.of_list (Graph.edges g) in
      for i = Array.length edges - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = edges.(i) in
        edges.(i) <- edges.(j);
        edges.(j) <- t
      done;
      let h = Graph.create n in
      Array.iter (fun (u, v, w) -> Graph.add_edge ~w h v u) edges;
      Array.iteri (fun v w -> Graph.set_vweight h v w) (Graph.vweights g);
      let shuffled_equal =
        Graph.equal_structure g h
        && Graph.equal_structure h g
        && Props.structural_hash g = Props.structural_hash h
      in
      let non_edge () =
        List.find_opt
          (fun (u, v) -> not (Graph.mem_edge h u v))
          (List.concat_map
             (fun u -> List.init (n - u - 1) (fun d -> (u, u + 1 + d)))
             (List.init n Fun.id))
      in
      (match perturb with
      | 1 when Array.length edges > 0 ->
          let u, v, w = edges.(0) in
          Graph.set_edge_weight h u v (w + 1)
      | 2 ->
          let v = Random.State.int rng n in
          Graph.set_vweight h v (Graph.vweight h v + 1)
      | 3 when Array.length edges > 0 -> (
          match non_edge () with
          | Some (a, b) ->
              let u, v, w = edges.(0) in
              Graph.remove_edge h u v;
              Graph.add_edge ~w h a b
          | None -> ())
      | _ -> ());
      shuffled_equal
      && Graph.equal_structure g h = by_definition g h
      && Graph.equal_structure h g = by_definition h g)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "graph"
    [
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "full" `Quick test_bitset_full;
          Alcotest.test_case "ops" `Quick test_bitset_ops;
          Alcotest.test_case "scan at word boundaries" `Quick
            test_bitset_scan_boundaries;
          qt prop_bitset_roundtrip;
          qt prop_bitset_demorgan;
          qt prop_bitset_scan;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "induced" `Quick test_graph_induced;
          Alcotest.test_case "union" `Quick test_graph_union;
          Alcotest.test_case "adjacency" `Quick test_graph_adjacency;
          Alcotest.test_case "dot export" `Quick test_to_dot;
          qt prop_edges_sorted;
          qt prop_equal_structure;
        ] );
      ("digraph", [ Alcotest.test_case "basic" `Quick test_digraph_basic ]);
      ( "gen",
        [
          Alcotest.test_case "counts" `Quick test_gen_counts;
          Alcotest.test_case "regular" `Quick test_gen_regular;
          qt prop_gnp_simple;
        ] );
      ( "props",
        [
          Alcotest.test_case "bfs" `Quick test_props_bfs;
          Alcotest.test_case "connectivity" `Quick test_props_connectivity;
          Alcotest.test_case "bipartite" `Quick test_props_bipartite;
          Alcotest.test_case "bridges" `Quick test_props_bridges;
          Alcotest.test_case "dijkstra" `Quick test_props_dijkstra;
          Alcotest.test_case "trees" `Quick test_props_tree;
          Alcotest.test_case "strong connectivity" `Quick test_props_strongly_connected;
          Alcotest.test_case "balls" `Quick test_props_ball;
          qt prop_induced_subgraph;
          qt prop_components_partition;
        ] );
      ("expander", [ Alcotest.test_case "claim 3.2 gadgets" `Quick test_expander_small ]);
    ]
