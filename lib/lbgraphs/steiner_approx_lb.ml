open Ch_graph
open Ch_cc
open Ch_core

type params = { collection : Covering.t; alpha : int }

let make_params ?(seed = 0) ~ell ~t_count ~r () =
  { collection = Covering.construct ~seed ~ell ~t_count ~r (); alpha = r + 1 }

(* shared layout with the k-MDS construction: a_j, b_j, S_i, S̄_i, a, b, R *)
module Ix = struct
  let a_elt _p j = j

  let b_elt p j = p.collection.Covering.ell + j

  let s p i = (2 * p.collection.Covering.ell) + i

  let s_bar p i =
    (2 * p.collection.Covering.ell) + Array.length p.collection.Covering.sets + i

  let hub_a p =
    (2 * p.collection.Covering.ell) + (2 * Array.length p.collection.Covering.sets)

  let hub_b p = hub_a p + 1

  let root p = hub_a p + 2

  let n p = hub_a p + 3
end

let terminals p =
  List.init (2 * p.collection.Covering.ell) Fun.id

(* ---------------- node-weighted (Theorem 4.6) ---------------- *)

let build_node_weighted p x y =
  let ell = p.collection.Covering.ell in
  let t_count = Array.length p.collection.Covering.sets in
  if Bits.length x <> t_count || Bits.length y <> t_count then
    invalid_arg "Steiner_approx_lb: inputs must have T bits";
  let g = Graph.create ~default_vweight:0 (Ix.n p) in
  for i = 0 to t_count - 1 do
    Graph.set_vweight g (Ix.s p i) (if Bits.get x i then 1 else p.alpha);
    Graph.set_vweight g (Ix.s_bar p i) (if Bits.get y i then 1 else p.alpha)
  done;
  for j = 0 to ell - 1 do
    Graph.add_edge g (Ix.a_elt p j) (Ix.b_elt p j)
  done;
  for i = 0 to t_count - 1 do
    Graph.add_edge g (Ix.hub_a p) (Ix.s p i);
    Graph.add_edge g (Ix.hub_b p) (Ix.s_bar p i);
    for j = 0 to ell - 1 do
      if Covering.mem p.collection ~set:i j then
        Graph.add_edge g (Ix.s p i) (Ix.a_elt p j)
      else Graph.add_edge g (Ix.s_bar p i) (Ix.b_elt p j)
    done
  done;
  Graph.add_edge g (Ix.root p) (Ix.hub_a p);
  Graph.add_edge g (Ix.root p) (Ix.hub_b p);
  g

let side p =
  let side = Array.make (Ix.n p) false in
  for j = 0 to p.collection.Covering.ell - 1 do
    side.(Ix.a_elt p j) <- true
  done;
  for i = 0 to Array.length p.collection.Covering.sets - 1 do
    side.(Ix.s p i) <- true
  done;
  side.(Ix.hub_a p) <- true;
  side

let node_weighted_cost p x y =
  let g = build_node_weighted p x y in
  Ch_solvers.Steiner.node_weighted g (terminals p)

let node_weighted_family p =
  {
    Framework.name = "node-weighted-steiner-log-approx (Thm 4.6)";
    params =
      [
        ("ell", p.collection.Covering.ell);
        ("T", Array.length p.collection.Covering.sets);
        ("r", p.collection.Covering.r);
      ];
    input_bits = Array.length p.collection.Covering.sets;
    nvertices = Ix.n p;
    side = side p;
    build = (fun x y -> Framework.With_terminals (build_node_weighted p x y, terminals p));
    predicate =
      (fun inst ->
        match inst with
        | Framework.With_terminals (g, terms) ->
            Ch_solvers.Steiner.node_weighted g terms <= 2
        | _ -> invalid_arg "expected terminals");
    f = Commfn.intersecting;
  }

let node_weighted_gap_holds p x y =
  let cost = node_weighted_cost p x y in
  if Commfn.intersecting x y then cost <= 2
  else cost > p.collection.Covering.r

(* Fixed topology, weights-only inputs: the same split as Kmds_lb, but
   the solve goes through the connector-feasibility table of
   Cache.nwsteiner rather than domination balls. *)

type nw_core = { np : params; ng : Graph.t }

let build_node_weighted_core p =
  let t_count = Array.length p.collection.Covering.sets in
  { np = p; ng = build_node_weighted p (Bits.zeros t_count) (Bits.zeros t_count) }

let apply_node_weighted_inputs c x y =
  let p = c.np in
  let t_count = Array.length p.collection.Covering.sets in
  if Bits.length x <> t_count || Bits.length y <> t_count then
    invalid_arg "Steiner_approx_lb: inputs must have T bits";
  for i = 0 to t_count - 1 do
    Graph.set_vweight c.ng (Ix.s p i) (if Bits.get x i then 1 else p.alpha);
    Graph.set_vweight c.ng (Ix.s_bar p i) (if Bits.get y i then 1 else p.alpha)
  done;
  c.ng

let node_weighted_incremental p =
  {
    Framework.scratch = node_weighted_family p;
    prepare =
      (fun () ->
        let c = build_node_weighted_core p in
        let nc =
          Ch_solvers.Cache.nwsteiner_prepare c.ng ~terminals:(terminals p)
        in
        {
          Framework.pbuild =
            (fun x y ->
              Framework.With_terminals
                (apply_node_weighted_inputs c x y, terminals p));
          pverdict =
            (fun x y ->
              let g = apply_node_weighted_inputs c x y in
              Ch_solvers.Cache.nwsteiner_cost nc ~weights:(Graph.vweights g)
              <= 2);
          pstats = (fun () -> Ch_solvers.Cache.nwsteiner_stats nc);
        });
  }

(* ---------------- directed (Theorem 4.7) ---------------- *)

(* everything except the input-dependent zero-weight set→element arcs *)
let directed_core_digraph p =
  let ell = p.collection.Covering.ell in
  let t_count = Array.length p.collection.Covering.sets in
  let dg = Digraph.create (Ix.n p) in
  Digraph.add_arc ~w:0 dg (Ix.root p) (Ix.hub_a p);
  Digraph.add_arc ~w:0 dg (Ix.root p) (Ix.hub_b p);
  for i = 0 to t_count - 1 do
    Digraph.add_arc ~w:1 dg (Ix.hub_a p) (Ix.s p i);
    Digraph.add_arc ~w:1 dg (Ix.hub_b p) (Ix.s_bar p i)
  done;
  for j = 0 to ell - 1 do
    Digraph.add_arc ~w:0 dg (Ix.a_elt p j) (Ix.b_elt p j);
    Digraph.add_arc ~w:0 dg (Ix.b_elt p j) (Ix.a_elt p j);
    (* fallback arcs guaranteeing feasibility *)
    Digraph.add_arc ~w:p.alpha dg (Ix.hub_a p) (Ix.a_elt p j);
    Digraph.add_arc ~w:p.alpha dg (Ix.hub_b p) (Ix.b_elt p j)
  done;
  dg

let directed_input_arcs p x y =
  let ell = p.collection.Covering.ell in
  let t_count = Array.length p.collection.Covering.sets in
  if Bits.length x <> t_count || Bits.length y <> t_count then
    invalid_arg "Steiner_approx_lb: inputs must have T bits";
  let acc = ref [] in
  for i = 0 to t_count - 1 do
    for j = 0 to ell - 1 do
      if Covering.mem p.collection ~set:i j then begin
        if Bits.get x i then acc := (Ix.s p i, Ix.a_elt p j, 0) :: !acc
      end
      else if Bits.get y i then acc := (Ix.s_bar p i, Ix.b_elt p j, 0) :: !acc
    done
  done;
  List.rev !acc

let build_directed p x y =
  let dg = directed_core_digraph p in
  let arcs = directed_input_arcs p x y in
  List.iter (fun (u, v, w) -> Digraph.add_arc ~w dg u v) arcs;
  dg

type dir_core = {
  dp_ : params;
  dg_ : Digraph.t;
  mutable dapplied : (Bits.t * Bits.t) option;
}

let build_directed_core p =
  { dp_ = p; dg_ = directed_core_digraph p; dapplied = None }

let apply_directed_inputs c x y =
  let p = c.dp_ in
  (match c.dapplied with
  | Some (px, py) ->
      List.iter
        (fun (u, v, _) -> Digraph.remove_arc c.dg_ u v)
        (directed_input_arcs p px py)
  | None -> ());
  List.iter
    (fun (u, v, w) -> Digraph.add_arc ~w c.dg_ u v)
    (directed_input_arcs p x y);
  c.dapplied <- Some (x, y);
  c.dg_

let directed_cost p x y =
  match
    Ch_solvers.Steiner.directed (build_directed p x y) ~root:(Ix.root p)
      (terminals p)
  with
  | Some c -> c
  | None -> max_int

let directed_family p =
  {
    Framework.name = "directed-steiner-log-approx (Thm 4.7)";
    params =
      [
        ("ell", p.collection.Covering.ell);
        ("T", Array.length p.collection.Covering.sets);
        ("r", p.collection.Covering.r);
      ];
    input_bits = Array.length p.collection.Covering.sets;
    nvertices = Ix.n p;
    side = side p;
    build =
      (fun x y ->
        Framework.Rooted_digraph (build_directed p x y, Ix.root p, terminals p));
    predicate =
      (fun inst ->
        match inst with
        | Framework.Rooted_digraph (dg, root, terms) -> (
            match Ch_solvers.Steiner.directed dg ~root terms with
            | Some c -> c <= 2
            | None -> false)
        | _ -> invalid_arg "expected rooted digraph");
    f = Commfn.intersecting;
  }

let directed_gap_holds p x y =
  let cost = directed_cost p x y in
  if Commfn.intersecting x y then cost <= 2
  else cost > p.collection.Covering.r

let directed_incremental p =
  let root = Ix.root p and terms = terminals p in
  {
    Framework.scratch = directed_family p;
    prepare =
      (fun () ->
        let c = build_directed_core p in
        (* the shared reversed rows snapshot the pristine core; per-pair
           arcs ride in as ~extra, so the mutable digraph is only touched
           by pbuild *)
        let ds =
          Ch_solvers.Cache.dsteiner_prepare c.dg_ ~root ~terminals:terms
        in
        {
          Framework.pbuild =
            (fun x y ->
              Framework.Rooted_digraph (apply_directed_inputs c x y, root, terms));
          pverdict =
            (fun x y ->
              match
                Ch_solvers.Cache.dsteiner_cost ~cutoff:2 ds
                  ~extra:(directed_input_arcs p x y)
              with
              | Some cost -> cost <= 2
              | None -> false);
          pstats = (fun () -> Ch_solvers.Cache.dsteiner_stats ds);
        });
  }

(* registry scale: the k = 2 collection (ell = 4, T = 3) keeps the
   2ell-terminal Dreyfus-Wagner scratch solver exhaustive-feasible *)
let registry_params k =
  let ell, t_count = if k <= 2 then (4, 3) else (6, 5) in
  make_params ~seed:1 ~ell ~t_count ~r:2 ()

let specs =
  [
    {
      Registry.id = "steiner-node-weighted";
      title = "node-weighted Steiner log-approx";
      paper_ref = "Thm 4.6, Fig 6";
      origin = "Steiner_approx_lb";
      default_k = 2;
      sweep_ks = [ 2 ];
      scratch = (fun k -> node_weighted_family (registry_params k));
      incremental = Some (fun k -> node_weighted_incremental (registry_params k));
      reduction = None;
    };
    {
      Registry.id = "steiner-directed";
      title = "directed Steiner log-approx";
      paper_ref = "Thm 4.7, Fig 6";
      origin = "Steiner_approx_lb";
      default_k = 2;
      sweep_ks = [ 2 ];
      scratch = (fun k -> directed_family (registry_params k));
      incremental = Some (fun k -> directed_incremental (registry_params k));
      reduction = None;
    };
  ]
