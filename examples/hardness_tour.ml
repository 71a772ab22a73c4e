(* A tour of every lower-bound family in the library: construct it, verify
   its defining iff-property on random inputs, and print the structural
   quantities that feed Theorem 1.1.

   Run with: dune exec examples/hardness_tour.exe *)

open Ch_core
open Ch_lbgraphs

let tour fam ~samples =
  let mode = Framework.Sampled { seed = 9; samples } in
  let total = Framework.pair_count fam mode in
  let failures =
    (Framework.verdicts (Framework.of_family fam) mode ~lo:0 ~hi:total)
      .Framework.failures
  in
  let cut = Framework.cut_size fam in
  let lb =
    Framework.lower_bound_rounds ~input_bits:fam.Framework.input_bits ~cut
      ~n:fam.Framework.nvertices
  in
  Printf.printf "%-44s n=%5d  K=%5d  cut=%4d  verified %d/%d  LB=%8.1f\n"
    fam.Framework.name fam.Framework.nvertices fam.Framework.input_bits cut
    (total - failures) total lb

let () =
  Printf.printf
    "family                                        n      K     cut   property        Ω(rounds)\n";
  Printf.printf "%s\n" (String.make 100 '-');
  tour (Mds_lb.family ~k:2) ~samples:20;
  tour (Mds_lb.family ~k:4) ~samples:10;
  tour (Maxis_lb.family ~k:4) ~samples:20;
  tour (Maxis_lb.mvc_family ~k:4) ~samples:20;
  tour (Hampath_lb.path_family ~k:2) ~samples:16;
  tour (Hampath_lb.cycle_family ~k:2) ~samples:10;
  tour (Hampath_lb.undirected_cycle_family ~k:2) ~samples:8;
  tour (Hampath_lb.undirected_path_family ~k:2) ~samples:8;
  tour (Hampath_lb.ecss_family ~k:2) ~samples:8;
  tour (Steiner_lb.family ~k:2) ~samples:6;
  tour (Maxcut_lb.family ~k:2) ~samples:6;
  tour (Spanner_lb.family ~k:2) ~samples:6;
  let p = Maxis_approx_lb.make_params ~ell:2 ~k:2 () in
  tour (Maxis_approx_lb.weighted_family p) ~samples:12;
  tour (Maxis_approx_lb.unweighted_family p) ~samples:8;
  tour (Maxis_approx_lb.linear_family p) ~samples:12;
  let kp = Kmds_lb.make_params ~seed:1 ~k:2 ~ell:6 ~t_count:6 ~r:2 () in
  tour (Kmds_lb.family kp) ~samples:20;
  let kp3 = Kmds_lb.make_params ~seed:1 ~k:3 ~ell:6 ~t_count:6 ~r:2 () in
  tour (Kmds_lb.family kp3) ~samples:10;
  let sp = Steiner_approx_lb.make_params ~seed:1 ~ell:6 ~t_count:5 ~r:2 () in
  tour (Steiner_approx_lb.node_weighted_family sp) ~samples:6;
  tour (Steiner_approx_lb.directed_family sp) ~samples:6;
  let rp = Mds_restricted_lb.make_params ~seed:1 ~ell:6 ~t_count:6 ~r:2 () in
  tour (Mds_restricted_lb.family rp) ~samples:20;
  Printf.printf "%s\n" (String.make 100 '-');
  Printf.printf
    "(LB = K / (|E_cut| · log₂ n), the Theorem 1.1 round bound at the test scale;\n\
    \ the bench sweeps larger k and reports the asymptotic shapes.)\n"
