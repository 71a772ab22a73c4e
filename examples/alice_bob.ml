(* The Theorem 1.1 reduction, end to end.

   A CONGEST algorithm that decides "γ(G) ≤ 4 log k + 2" is run on the
   Figure 1 graph G_{x,y} with Alice simulating V_A and Bob V_B.  The only
   information that crosses between the players is the messages on E_cut —
   which the harness counts bit by bit.  Because the predicate equals
   ¬DISJ(x,y), the two players end up solving set disjointness, so the
   number of crossing bits is at least CC(DISJ_{k²}) = Ω(k²); dividing by
   |E_cut|·log n gives the paper's Ω̃(n²) round bound.

   Run with: dune exec examples/alice_bob.exe *)

open Ch_cc
open Ch_core
open Ch_lbgraphs

let () =
  let k = 4 in
  let fam = Mds_lb.family ~k in
  let target = Mds_lb.target_size ~k in
  Printf.printf
    "Simulating the gather-and-solve CONGEST algorithm for exact MDS on\n\
     G_{x,y} (k = %d, n = %d, |E_cut| = %d), with Alice and Bob splitting\n\
     the graph.\n\n"
    k fam.Framework.nvertices (Framework.cut_size fam);
  Printf.printf "  %-18s %-18s %-8s %-10s %-8s %s\n" "x" "y" "DISJ?" "decided" "rounds"
    "cut bits";
  let run x y =
    let sim =
      Framework.simulate_reduction fam
        ~solver:(Framework.Graph_solver Ch_solvers.Domset.min_size)
        ~accept:(fun gamma -> gamma <= target)
        x y
    in
    Printf.printf "  %-18s %-18s %-8b %-10s %-8d %d\n" (Bits.to_string x)
      (Bits.to_string y)
      (Commfn.disj x y)
      (if sim.Framework.decision_correct then "correct" else "WRONG")
      sim.Framework.rounds sim.Framework.cut_bits
  in
  run (Bits.ones 16) (Bits.zeros 16);
  run (Bits.ones 16) (Bits.ones 16);
  for i = 0 to 5 do
    let x = Bits.random ~seed:i ~density:0.8 16 in
    let y = Bits.random ~seed:(50 + i) ~density:0.8 16 in
    run x y
  done;
  Printf.printf
    "\nEvery decision is correct, so the transcript solves DISJ_{k²}: the\n\
     crossing bits must total Ω(k²) over worst-case inputs, no matter how\n\
     clever the CONGEST algorithm is.  That is Theorem 1.1.\n"
