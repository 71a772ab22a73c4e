open Ch_graph
open Ch_cc
open Ch_codes
open Ch_core

type params = { k : int; ell : int; t : int; q : int }

let make_params ?ell ~k () =
  let t = Bitgadget.check_k "Maxis_approx_lb" k in
  let ell = match ell with Some e -> e | None -> max 2 (t * t) in
  let q = Gf.next_prime (ell + t + 1) in
  { k; ell; t; q }

let yes_weight p = (8 * p.ell) + (4 * p.t)

let no_weight p = (7 * p.ell) + (4 * p.t)

let code p = Reed_solomon.create ~len:(p.ell + p.t) ~dim:p.t ~q:p.q

let codewords p = Reed_solomon.injection (code p) p.k

(* ------------------------------------------------------------------ *)
(* Weighted construction (Theorem 4.3)                                *)
(* ------------------------------------------------------------------ *)

(* layout: rows 0..4k-1 (weight ℓ); then per set S a block of (ℓ+t)·q
   gadget vertices (weight 1): (S, j, α) *)
module WIx = struct
  let row p s i =
    assert (i >= 0 && i < p.k);
    (Mds_lb.set_index s * p.k) + i

  let gadget p s j alpha =
    (4 * p.k)
    + (Mds_lb.set_index s * (p.ell + p.t) * p.q)
    + (j * p.q) + alpha

  let n p = (4 * p.k) + (4 * (p.ell + p.t) * p.q)
end

let add_common_structure p g ~row_vertices ~gadget =
  let words = codewords p in
  let sets = [ Mds_lb.A1; Mds_lb.A2; Mds_lb.B1; Mds_lb.B2 ] in
  (* gadget row cliques *)
  List.iter
    (fun s ->
      for j = 0 to p.ell + p.t - 1 do
        for a = 0 to p.q - 1 do
          for b = a + 1 to p.q - 1 do
            Graph.add_edge g (gadget s j a) (gadget s j b)
          done
        done
      done)
    sets;
  (* cross edges minus a perfect matching *)
  List.iter
    (fun (sa, sb) ->
      for j = 0 to p.ell + p.t - 1 do
        for a = 0 to p.q - 1 do
          for b = 0 to p.q - 1 do
            if a <> b then Graph.add_edge g (gadget sa j a) (gadget sb j b)
          done
        done
      done)
    [ (Mds_lb.A1, Mds_lb.B1); (Mds_lb.A2, Mds_lb.B2) ];
  (* row vertices conflict with the gadget vertices contradicting their
     codeword; row_vertices lists the (set, index, vertex ids) present *)
  List.iter
    (fun (s, i, vertices) ->
      let w = words.(i) in
      for j = 0 to p.ell + p.t - 1 do
        for a = 0 to p.q - 1 do
          if a <> w.(j) then
            List.iter (fun v -> Graph.add_edge g v (gadget s j a)) vertices
        done
      done)
    row_vertices

(* everything but the input-dependent row-row edges *)
let weighted_core_graph p =
  let g = Graph.create (WIx.n p) in
  for v = 0 to (4 * p.k) - 1 do
    Graph.set_vweight g v p.ell
  done;
  let sets = [ Mds_lb.A1; Mds_lb.A2; Mds_lb.B1; Mds_lb.B2 ] in
  (* row cliques *)
  List.iter
    (fun s ->
      for i = 0 to p.k - 1 do
        for j = i + 1 to p.k - 1 do
          Graph.add_edge g (WIx.row p s i) (WIx.row p s j)
        done
      done)
    sets;
  let row_vertices =
    List.concat_map
      (fun s -> List.init p.k (fun i -> (s, i, [ WIx.row p s i ])))
      sets
  in
  add_common_structure p g ~row_vertices ~gadget:(WIx.gadget p);
  g

(* inputs: edge present iff the bit is 0 *)
let weighted_input_edges p x y =
  if Bits.length x <> p.k * p.k || Bits.length y <> p.k * p.k then
    invalid_arg "Maxis_approx_lb: inputs must have k^2 bits";
  let acc = ref [] in
  for i = 0 to p.k - 1 do
    for j = 0 to p.k - 1 do
      if not (Bits.get_pair ~k:p.k x i j) then
        acc := (WIx.row p Mds_lb.A1 i, WIx.row p Mds_lb.A2 j) :: !acc;
      if not (Bits.get_pair ~k:p.k y i j) then
        acc := (WIx.row p Mds_lb.B1 i, WIx.row p Mds_lb.B2 j) :: !acc
    done
  done;
  List.rev !acc

let build_weighted p x y =
  let g = weighted_core_graph p in
  List.iter (fun (u, v) -> Graph.add_edge g u v) (weighted_input_edges p x y);
  g

let weighted_side p =
  let side = Array.make (WIx.n p) false in
  List.iter
    (fun s ->
      for i = 0 to p.k - 1 do
        side.(WIx.row p s i) <- true
      done;
      for j = 0 to p.ell + p.t - 1 do
        for a = 0 to p.q - 1 do
          side.(WIx.gadget p s j a) <- true
        done
      done)
    [ Mds_lb.A1; Mds_lb.A2 ];
  side

let weighted_family p =
  let target = yes_weight p in
  {
    Framework.name = "maxis-7/8-approx weighted (Thm 4.3)";
    params = [ ("k", p.k); ("ell", p.ell); ("t", p.t); ("q", p.q) ];
    input_bits = p.k * p.k;
    nvertices = WIx.n p;
    side = weighted_side p;
    build = (fun x y -> Framework.Undirected (build_weighted p x y));
    predicate =
      (fun inst ->
        match inst with
        | Framework.Undirected g -> fst (Ch_solvers.Mis.max_weight_set g) >= target
        | _ -> invalid_arg "expected undirected");
    f = Commfn.intersecting;
  }

(* The inputs only add edges among the 4k row vertices and every row of a
   set is already a core clique, so the conditioned MWIS table
   (Cache.mwis) has at most (k+1)^4 entries. *)

type w_core = {
  wp : params;
  wg : Graph.t;
  mutable wapplied : (Bits.t * Bits.t) option;
}

let build_weighted_core p = { wp = p; wg = weighted_core_graph p; wapplied = None }

let apply_weighted_inputs c x y =
  let p = c.wp in
  (match c.wapplied with
  | Some (px, py) ->
      List.iter
        (fun (u, v) -> Graph.remove_edge c.wg u v)
        (weighted_input_edges p px py)
  | None -> ());
  List.iter (fun (u, v) -> Graph.add_edge c.wg u v) (weighted_input_edges p x y);
  c.wapplied <- Some (x, y);
  c.wg

let weighted_incremental p =
  let target = yes_weight p in
  let volatile = List.init (4 * p.k) Fun.id in
  {
    Framework.scratch = weighted_family p;
    prepare =
      (fun () ->
        let c = build_weighted_core p in
        let mw = Ch_solvers.Cache.mwis_prepare c.wg ~volatile in
        {
          Framework.pbuild =
            (fun x y -> Framework.Undirected (apply_weighted_inputs c x y));
          pverdict =
            (fun x y ->
              Ch_solvers.Cache.mwis_weight mw
                ~extra:(weighted_input_edges p x y)
              >= target);
          pstats = (fun () -> Ch_solvers.Cache.mis_stats mw);
        });
  }

(* ------------------------------------------------------------------ *)
(* Unweighted construction (Theorem 4.1): rows become ℓ-vertex batches *)
(* ------------------------------------------------------------------ *)

module UIx = struct
  let batch p s i xi =
    assert (xi >= 0 && xi < p.ell);
    ((Mds_lb.set_index s * p.k) + i) * p.ell |> fun base -> base + xi

  let gadget p s j alpha =
    (4 * p.k * p.ell)
    + (Mds_lb.set_index s * (p.ell + p.t) * p.q)
    + (j * p.q) + alpha

  let n p = (4 * p.k * p.ell) + (4 * (p.ell + p.t) * p.q)
end

let ubatch p s i = List.init p.ell (fun xi -> UIx.batch p s i xi)

let unweighted_core_graph p =
  let g = Graph.create (UIx.n p) in
  let sets = [ Mds_lb.A1; Mds_lb.A2; Mds_lb.B1; Mds_lb.B2 ] in
  let connect_batches b1 b2 =
    List.iter (fun u -> List.iter (fun v -> Graph.add_edge g u v) b2) b1
  in
  (* row "cliques": complete multipartite between batches of a set *)
  List.iter
    (fun s ->
      for i = 0 to p.k - 1 do
        for j = i + 1 to p.k - 1 do
          connect_batches (ubatch p s i) (ubatch p s j)
        done
      done)
    sets;
  let row_vertices =
    List.concat_map (fun s -> List.init p.k (fun i -> (s, i, ubatch p s i))) sets
  in
  add_common_structure p g ~row_vertices ~gadget:(UIx.gadget p);
  g

let unweighted_input_edges p x y =
  if Bits.length x <> p.k * p.k || Bits.length y <> p.k * p.k then
    invalid_arg "Maxis_approx_lb: inputs must have k^2 bits";
  let acc = ref [] in
  let cross b1 b2 =
    List.iter (fun u -> List.iter (fun v -> acc := (u, v) :: !acc) b2) b1
  in
  for i = 0 to p.k - 1 do
    for j = 0 to p.k - 1 do
      if not (Bits.get_pair ~k:p.k x i j) then
        cross (ubatch p Mds_lb.A1 i) (ubatch p Mds_lb.A2 j);
      if not (Bits.get_pair ~k:p.k y i j) then
        cross (ubatch p Mds_lb.B1 i) (ubatch p Mds_lb.B2 j)
    done
  done;
  List.rev !acc

let build_unweighted p x y =
  let g = unweighted_core_graph p in
  List.iter (fun (u, v) -> Graph.add_edge g u v) (unweighted_input_edges p x y);
  g

let unweighted_side p =
  let side = Array.make (UIx.n p) false in
  List.iter
    (fun s ->
      for i = 0 to p.k - 1 do
        for xi = 0 to p.ell - 1 do
          side.(UIx.batch p s i xi) <- true
        done
      done;
      for j = 0 to p.ell + p.t - 1 do
        for a = 0 to p.q - 1 do
          side.(UIx.gadget p s j a) <- true
        done
      done)
    [ Mds_lb.A1; Mds_lb.A2 ];
  side

let unweighted_family p =
  let target = yes_weight p in
  {
    Framework.name = "maxis-7/8-approx unweighted (Thm 4.1)";
    params = [ ("k", p.k); ("ell", p.ell); ("t", p.t); ("q", p.q) ];
    input_bits = p.k * p.k;
    nvertices = UIx.n p;
    side = unweighted_side p;
    build = (fun x y -> Framework.Undirected (build_unweighted p x y));
    predicate =
      (fun inst ->
        match inst with
        | Framework.Undirected g -> Ch_solvers.Mis.alpha g >= target
        | _ -> invalid_arg "unweighted: expected undirected");
    f = Commfn.intersecting;
  }

(* Volatile vertices: all 4kℓ batch vertices.  A core-independent subset
   picks vertices of at most one batch per set (batches of a set are
   pairwise fully connected, batches themselves are edge-free), so the
   conditioned table has (1 + k(2^ℓ - 1))^4 entries. *)

type u_core = {
  up : params;
  ug : Graph.t;
  mutable uapplied : (Bits.t * Bits.t) option;
}

let build_unweighted_core p =
  { up = p; ug = unweighted_core_graph p; uapplied = None }

let apply_unweighted_inputs c x y =
  let p = c.up in
  (match c.uapplied with
  | Some (px, py) ->
      List.iter
        (fun (u, v) -> Graph.remove_edge c.ug u v)
        (unweighted_input_edges p px py)
  | None -> ());
  List.iter (fun (u, v) -> Graph.add_edge c.ug u v) (unweighted_input_edges p x y);
  c.uapplied <- Some (x, y);
  c.ug

let unweighted_incremental p =
  let target = yes_weight p in
  let volatile = List.init (4 * p.k * p.ell) Fun.id in
  {
    Framework.scratch = unweighted_family p;
    prepare =
      (fun () ->
        let c = build_unweighted_core p in
        let mc = Ch_solvers.Cache.mis_prepare c.ug ~volatile in
        {
          Framework.pbuild =
            (fun x y -> Framework.Undirected (apply_unweighted_inputs c x y));
          pverdict =
            (fun x y ->
              Ch_solvers.Cache.mis_alpha mc
                ~extra:(unweighted_input_edges p x y)
              >= target);
          pstats = (fun () -> Ch_solvers.Cache.mis_stats mc);
        });
  }

(* ------------------------------------------------------------------ *)
(* Linear variant (Theorem 4.2): only A₂/B₂ plus batches v_A, v_B      *)
(* ------------------------------------------------------------------ *)

let linear_yes_size p = (6 * p.ell) + (2 * p.t)

(* layout: batch(v_A): 0..ℓ-1; batch(v_B): ℓ..2ℓ-1; then A₂ batches
   (k·ℓ), B₂ batches (k·ℓ); then gadget blocks for A₂ and B₂ *)
module LIx = struct
  let va p xi = assert (xi < p.ell); xi

  let vb p xi = assert (xi < p.ell); p.ell + xi

  let batch p side_b i xi =
    (2 * p.ell) + (((if side_b then p.k else 0) + i) * p.ell) + xi

  let gadget p side_b j alpha =
    (2 * p.ell) + (2 * p.k * p.ell)
    + ((if side_b then (p.ell + p.t) * p.q else 0) + (j * p.q) + alpha)

  let n p = (2 * p.ell) + (2 * p.k * p.ell) + (2 * (p.ell + p.t) * p.q)
end

let lbatch p side_b i = List.init p.ell (fun xi -> LIx.batch p side_b i xi)

let lva p = List.init p.ell (fun xi -> LIx.va p xi)

let lvb p = List.init p.ell (fun xi -> LIx.vb p xi)

let linear_core_graph p =
  let g = Graph.create (LIx.n p) in
  let words = codewords p in
  let batch side_b i = lbatch p side_b i in
  let connect_batches b1 b2 =
    List.iter (fun u -> List.iter (fun v -> Graph.add_edge g u v) b2) b1
  in
  (* the two remaining row sets are "cliques" of batches *)
  List.iter
    (fun side_b ->
      for i = 0 to p.k - 1 do
        for j = i + 1 to p.k - 1 do
          connect_batches (batch side_b i) (batch side_b j)
        done
      done)
    [ false; true ];
  (* gadget rows, cross edges, code conflicts *)
  List.iter
    (fun side_b ->
      for j = 0 to p.ell + p.t - 1 do
        for a = 0 to p.q - 1 do
          for b = a + 1 to p.q - 1 do
            Graph.add_edge g (LIx.gadget p side_b j a) (LIx.gadget p side_b j b)
          done
        done
      done)
    [ false; true ];
  for j = 0 to p.ell + p.t - 1 do
    for a = 0 to p.q - 1 do
      for b = 0 to p.q - 1 do
        if a <> b then
          Graph.add_edge g (LIx.gadget p false j a) (LIx.gadget p true j b)
      done
    done
  done;
  List.iter
    (fun side_b ->
      for i = 0 to p.k - 1 do
        let w = words.(i) in
        for j = 0 to p.ell + p.t - 1 do
          for a = 0 to p.q - 1 do
            if a <> w.(j) then
              List.iter
                (fun v -> Graph.add_edge g v (LIx.gadget p side_b j a))
                (batch side_b i)
          done
        done
      done)
    [ false; true ];
  g

(* inputs of length k *)
let linear_input_edges p x y =
  if Bits.length x <> p.k || Bits.length y <> p.k then
    invalid_arg "Maxis_approx_lb.linear: inputs must have k bits";
  let acc = ref [] in
  let cross b1 b2 =
    List.iter (fun u -> List.iter (fun v -> acc := (u, v) :: !acc) b2) b1
  in
  for i = 0 to p.k - 1 do
    if not (Bits.get x i) then cross (lva p) (lbatch p false i);
    if not (Bits.get y i) then cross (lvb p) (lbatch p true i)
  done;
  List.rev !acc

let build_linear p x y =
  let g = linear_core_graph p in
  List.iter (fun (u, v) -> Graph.add_edge g u v) (linear_input_edges p x y);
  g

let linear_side p =
  let side = Array.make (LIx.n p) false in
  for xi = 0 to p.ell - 1 do
    side.(LIx.va p xi) <- true
  done;
  for i = 0 to p.k - 1 do
    for xi = 0 to p.ell - 1 do
      side.(LIx.batch p false i xi) <- true
    done
  done;
  for j = 0 to p.ell + p.t - 1 do
    for a = 0 to p.q - 1 do
      side.(LIx.gadget p false j a) <- true
    done
  done;
  side

let linear_family p =
  let target = linear_yes_size p in
  {
    Framework.name = "maxis-5/6-approx (Thm 4.2)";
    params = [ ("k", p.k); ("ell", p.ell); ("t", p.t); ("q", p.q) ];
    input_bits = p.k;
    nvertices = LIx.n p;
    side = linear_side p;
    build = (fun x y -> Framework.Undirected (build_linear p x y));
    predicate =
      (fun inst ->
        match inst with
        | Framework.Undirected g -> Ch_solvers.Mis.alpha g >= target
        | _ -> invalid_arg "expected undirected");
    f = Commfn.intersecting;
  }

(* Volatile vertices: v_A, v_B and the 2kℓ batch vertices.  v_A/v_B are
   core-edge-free, each side's batches are pairwise fully connected, so
   the table has (2^ℓ (1 + k(2^ℓ - 1)))^2 entries. *)

type l_core = {
  lp : params;
  lg : Graph.t;
  mutable lapplied : (Bits.t * Bits.t) option;
}

let build_linear_core p = { lp = p; lg = linear_core_graph p; lapplied = None }

let apply_linear_inputs c x y =
  let p = c.lp in
  (match c.lapplied with
  | Some (px, py) ->
      List.iter
        (fun (u, v) -> Graph.remove_edge c.lg u v)
        (linear_input_edges p px py)
  | None -> ());
  List.iter (fun (u, v) -> Graph.add_edge c.lg u v) (linear_input_edges p x y);
  c.lapplied <- Some (x, y);
  c.lg

let linear_incremental p =
  let target = linear_yes_size p in
  let volatile =
    lva p @ lvb p
    @ List.concat_map
        (fun side_b -> List.concat_map (fun i -> lbatch p side_b i) (List.init p.k Fun.id))
        [ false; true ]
  in
  {
    Framework.scratch = linear_family p;
    prepare =
      (fun () ->
        let c = build_linear_core p in
        let mc = Ch_solvers.Cache.mis_prepare c.lg ~volatile in
        {
          Framework.pbuild =
            (fun x y -> Framework.Undirected (apply_linear_inputs c x y));
          pverdict =
            (fun x y ->
              Ch_solvers.Cache.mis_alpha mc ~extra:(linear_input_edges p x y)
              >= target);
          pstats = (fun () -> Ch_solvers.Cache.mis_stats mc);
        });
  }

(* registry scale: k is the construction k; ell/t/q follow make_params
   defaults (k = 2 gives ell = 2, matching the historical CLI scale) *)
let registry_params k = make_params ~k ()

let specs =
  [
    {
      Registry.id = "maxis-78-weighted";
      title = "MaxIS 7/8-approx (weighted)";
      paper_ref = "Thm 4.3, Fig 4";
      origin = "Maxis_approx_lb";
      default_k = 2;
      sweep_ks = [ 2 ];
      scratch = (fun k -> weighted_family (registry_params k));
      incremental = Some (fun k -> weighted_incremental (registry_params k));
      reduction = None;
    };
    {
      Registry.id = "maxis-78-unweighted";
      title = "MaxIS 7/8-approx (unweighted)";
      paper_ref = "Thm 4.1, Fig 4";
      origin = "Maxis_approx_lb";
      default_k = 2;
      sweep_ks = [ 2 ];
      scratch = (fun k -> unweighted_family (registry_params k));
      incremental = Some (fun k -> unweighted_incremental (registry_params k));
      reduction = None;
    };
    {
      Registry.id = "maxis-56";
      title = "MaxIS 5/6-approx (linear variant)";
      paper_ref = "Thm 4.2";
      origin = "Maxis_approx_lb";
      default_k = 2;
      sweep_ks = [ 2 ];
      scratch = (fun k -> linear_family (registry_params k));
      incremental = Some (fun k -> linear_incremental (registry_params k));
      reduction = None;
    };
  ]
