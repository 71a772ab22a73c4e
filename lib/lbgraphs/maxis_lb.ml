open Ch_graph
open Ch_cc
open Ch_core

module Ix = struct
  let row ~k s i =
    assert (i >= 0 && i < k);
    (Mds_lb.set_index s * k) + i

  let gadget_base ~k s = (4 * k) + (Mds_lb.set_index s * 2 * Bitgadget.log2 k)

  let f ~k s h = gadget_base ~k s + h

  let t ~k s h = gadget_base ~k s + Bitgadget.log2 k + h

  let n ~k =
    let tbits = Bitgadget.check_k "Maxis_lb" k in
    (4 * k) + (8 * tbits)
end

let alpha_target ~k = (4 * Bitgadget.log2 k) + 4

let core_graph ~k =
  let tbits = Bitgadget.check_k "Maxis_lb.core_graph" k in
  let g = Graph.create (Ix.n ~k) in
  (* row cliques *)
  List.iter
    (fun s ->
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          Graph.add_edge g (Ix.row ~k s i) (Ix.row ~k s j)
        done
      done)
    [ Mds_lb.A1; Mds_lb.A2; Mds_lb.B1; Mds_lb.B2 ];
  (* bit gadgets: intra pairs and equality cross edges *)
  List.iter
    (fun (sa, sb) ->
      for h = 0 to tbits - 1 do
        Graph.add_edge g (Ix.f ~k sa h) (Ix.t ~k sa h);
        Graph.add_edge g (Ix.f ~k sb h) (Ix.t ~k sb h);
        Graph.add_edge g (Ix.f ~k sa h) (Ix.t ~k sb h);
        Graph.add_edge g (Ix.t ~k sa h) (Ix.f ~k sb h)
      done)
    [ (Mds_lb.A1, Mds_lb.B1); (Mds_lb.A2, Mds_lb.B2) ];
  (* each row vertex conflicts with the gadget values contradicting it *)
  List.iter
    (fun s ->
      for i = 0 to k - 1 do
        for h = 0 to tbits - 1 do
          let conflict =
            if Bitgadget.bit i h then Ix.f ~k s h else Ix.t ~k s h
          in
          Graph.add_edge g (Ix.row ~k s i) conflict
        done
      done)
    [ Mds_lb.A1; Mds_lb.A2; Mds_lb.B1; Mds_lb.B2 ];
  g

(* inputs: the edge is present iff the bit is 0 *)
let input_edges ~k x y =
  if Bits.length x <> k * k || Bits.length y <> k * k then
    invalid_arg "Maxis_lb.input_edges: inputs must have k^2 bits";
  let acc = ref [] in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      if not (Bits.get_pair ~k x i j) then
        acc := (Ix.row ~k Mds_lb.A1 i, Ix.row ~k Mds_lb.A2 j) :: !acc;
      if not (Bits.get_pair ~k y i j) then
        acc := (Ix.row ~k Mds_lb.B1 i, Ix.row ~k Mds_lb.B2 j) :: !acc
    done
  done;
  List.rev !acc

let build ~k x y =
  let g = core_graph ~k in
  List.iter (fun (u, v) -> Graph.add_edge g u v) (input_edges ~k x y);
  g

type core = {
  ck : int;
  cg : Graph.t;
  mutable applied : (Bits.t * Bits.t) option;
}

let build_core ~k =
  let _ = Bitgadget.check_k "Maxis_lb.build_core" k in
  { ck = k; cg = core_graph ~k; applied = None }

let apply_inputs c x y =
  let k = c.ck in
  (match c.applied with
  | Some (px, py) ->
      List.iter (fun (u, v) -> Graph.remove_edge c.cg u v) (input_edges ~k px py)
  | None -> ());
  List.iter (fun (u, v) -> Graph.add_edge c.cg u v) (input_edges ~k x y);
  c.applied <- Some (x, y);
  c.cg

(* the 4k row vertices — the only endpoints of input edges *)
let volatile ~k = List.init (4 * k) Fun.id

let side ~k =
  let side = Array.make (Ix.n ~k) false in
  List.iter
    (fun s ->
      for i = 0 to k - 1 do
        side.(Ix.row ~k s i) <- true
      done;
      for h = 0 to Bitgadget.log2 k - 1 do
        side.(Ix.f ~k s h) <- true;
        side.(Ix.t ~k s h) <- true
      done)
    [ Mds_lb.A1; Mds_lb.A2 ];
  side

let family ~k =
  let target = alpha_target ~k in
  {
    Framework.name = "maxis-exact ([10] reimplementation)";
    params = [ ("k", k) ];
    input_bits = k * k;
    nvertices = Ix.n ~k;
    side = side ~k;
    build = (fun x y -> Framework.Undirected (build ~k x y));
    predicate =
      (fun inst ->
        match inst with
        | Framework.Undirected g -> Ch_solvers.Mis.alpha g >= target
        | _ -> invalid_arg "maxis family: undirected expected");
    f = Commfn.intersecting;
  }

let incremental ~k =
  let target = alpha_target ~k in
  {
    Framework.scratch = family ~k;
    prepare =
      (fun () ->
        let c = build_core ~k in
        (* conditioned α table of the unpatched core over the rows *)
        let mc = Ch_solvers.Cache.mis_prepare c.cg ~volatile:(volatile ~k) in
        {
          Framework.pbuild = (fun x y -> Framework.Undirected (apply_inputs c x y));
          pverdict =
            (fun x y ->
              Ch_solvers.Cache.mis_alpha mc ~extra:(input_edges ~k x y) >= target);
          pstats = (fun () -> Ch_solvers.Cache.mis_stats mc);
        });
  }

let mvc_family ~k =
  let base = family ~k in
  let target = Ix.n ~k - alpha_target ~k in
  {
    base with
    Framework.name = "mvc-exact ([10] reimplementation)";
    predicate =
      (fun inst ->
        match inst with
        | Framework.Undirected g -> Ch_solvers.Mis.min_vertex_cover_size g <= target
        | _ -> invalid_arg "mvc family: undirected expected");
  }

let specs =
  [
    {
      Registry.id = "maxis";
      title = "exact MaxIS";
      paper_ref = "Sec 2 ([10] reimplementation)";
      origin = "Maxis_lb";
      default_k = 2;
      sweep_ks = [ 2; 4 ];
      scratch = (fun k -> family ~k);
      incremental = Some (fun k -> incremental ~k);
      reduction =
        Some
          (fun k ->
            Registry.reduction2
              ~solver:(fun g -> Ch_solvers.Mis.alpha g)
              ~accept:(fun a -> a >= alpha_target ~k));
    };
    {
      Registry.id = "mvc";
      title = "exact MVC (MaxIS complement)";
      paper_ref = "Sec 2 ([10] reimplementation)";
      origin = "Maxis_lb";
      default_k = 2;
      sweep_ks = [ 2 ];
      scratch = (fun k -> mvc_family ~k);
      incremental = None;
      reduction = None;
    };
  ]
