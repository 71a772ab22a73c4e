open Ch_core
open Ch_lbgraphs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pool4 = lazy (Pool.create ~jobs:4 ())
let pool1 = lazy (Pool.create ~jobs:1 ())

(* ------------------------------------------------------------------ *)
(* The family catalog is domain-safe on first touch                   *)
(* ------------------------------------------------------------------ *)

(* Four domains released together make the first catalog lookups of
   this process; each must see the same catalog (a lazily forced global
   raises CamlinternalLazy.Undefined when forced concurrently). *)
let test_catalog_first_touch () =
  let ready = Atomic.make 0 in
  let lookup () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do
      Domain.cpu_relax ()
    done;
    let reg = Families.catalog () in
    ( Registry.ids reg,
      (Registry.find_exn reg "mds").Registry.default_k )
  in
  let results =
    List.map Domain.join (List.init 4 (fun _ -> Domain.spawn lookup))
  in
  let reg = Families.catalog () in
  let expected =
    (Registry.ids reg, (Registry.find_exn reg "mds").Registry.default_k)
  in
  List.iteri
    (fun i r ->
      check (Printf.sprintf "domain %d sees the catalog" i) true (r = expected))
    results

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let test_parallel_map_vs_list_map () =
  let xs = List.init 1000 (fun i -> i - 500) in
  let f x = (x * x) + (x mod 7) in
  check "1000 tasks, jobs=4" true
    (Pool.parallel_map (Lazy.force pool4) f xs = List.map f xs);
  check "1000 tasks, jobs=1" true
    (Pool.parallel_map (Lazy.force pool1) f xs = List.map f xs);
  check "empty" true (Pool.parallel_map (Lazy.force pool4) f [] = []);
  check "singleton" true (Pool.parallel_map (Lazy.force pool4) f [ 3 ] = [ f 3 ])

let test_parallel_chunks () =
  let pool = Lazy.force pool4 in
  (* per-chunk sums over [0, 10_000) merge to the closed-form total *)
  let sums =
    Pool.parallel_chunks pool ~lo:0 ~hi:10_000 (fun ~worker:_ lo hi ->
        let s = ref 0 in
        for i = lo to hi - 1 do
          s := !s + i
        done;
        !s)
  in
  check_int "range sum" (10_000 * 9_999 / 2) (List.fold_left ( + ) 0 sums);
  (* chunk boundaries partition the range in order *)
  let bounds =
    Pool.parallel_chunks pool ~chunk_size:7 ~lo:3 ~hi:50 (fun ~worker:_ lo hi ->
        (lo, hi))
  in
  let rec contiguous = function
    | (_, hi) :: ((lo, _) :: _ as rest) -> hi = lo && contiguous rest
    | _ -> true
  in
  check "contiguous chunks" true (contiguous bounds);
  check "covers lo" true (fst (List.hd bounds) = 3);
  check "covers hi" true (snd (List.nth bounds (List.length bounds - 1)) = 50);
  check "empty range" true
    (Pool.parallel_chunks pool ~lo:5 ~hi:5 (fun ~worker:_ lo hi -> (lo, hi))
     = [])

let test_nested_run () =
  (* a nested parallel_map from inside a task falls back to sequential
     execution instead of deadlocking *)
  let pool = Lazy.force pool4 in
  let rows =
    Pool.parallel_map pool
      (fun i -> Pool.parallel_map pool (fun j -> (10 * i) + j) [ 0; 1; 2 ])
      [ 1; 2; 3; 4 ]
  in
  check "nested" true
    (rows = [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ]; [ 40; 41; 42 ] ])

exception Boom of int

let test_exception_propagation () =
  let pool = Lazy.force pool4 in
  let ran = Atomic.make 0 in
  (match
     Pool.run pool
       (List.init 100 (fun i ~worker:_ ->
            Atomic.incr ran;
            if i mod 10 = 3 then raise (Boom i)))
   with
  | () -> Alcotest.fail "expected an exception"
  | exception Boom _ -> ());
  (* the batch drained: every task was attempted despite the failures *)
  check_int "all tasks attempted" 100 (Atomic.get ran);
  (* the pool survives and is reusable after a failing batch *)
  let xs = List.init 50 Fun.id in
  check "reusable after failure" true
    (Pool.parallel_map pool (fun x -> x * 2) xs = List.map (fun x -> x * 2) xs)

(* Every task learns the worker running it: an index below [jobs], 0
   throughout a one-worker pool, and never held by two tasks at once —
   each task claims its worker's flag for the duration and must find it
   free. *)
let test_worker_index () =
  let observe pool =
    let jobs = Pool.jobs pool in
    let busy = Array.init jobs (fun _ -> Atomic.make false) in
    let seen = Array.make 200 (-1) and clashes = Atomic.make 0 in
    Pool.run pool
      (List.init 200 (fun i ~worker ->
           seen.(i) <- worker;
           if not (Atomic.compare_and_set busy.(worker) false true) then
             Atomic.incr clashes
           else begin
             for _ = 1 to 200 do
               Domain.cpu_relax ()
             done;
             Atomic.set busy.(worker) false
           end));
    (seen, Atomic.get clashes)
  in
  let seen4, clashes4 = observe (Lazy.force pool4) in
  check "jobs=4: indices in range" true
    (Array.for_all (fun w -> w >= 0 && w < 4) seen4);
  check_int "jobs=4: no index shared by concurrent tasks" 0 clashes4;
  let seen1, clashes1 = observe (Lazy.force pool1) in
  check "jobs=1: every task on worker 0" true (Array.for_all (( = ) 0) seen1);
  check_int "jobs=1: no clash" 0 clashes1

(* ------------------------------------------------------------------ *)
(* Parallel verification determinism: CH_JOBS=1 vs CH_JOBS=4          *)
(* ------------------------------------------------------------------ *)

(* Exhaustive sweeps on the Maxcut/Steiner k=2 families cost several
   exact-solver seconds per pair space, so only the cheap MDS family is
   swept exhaustively; the others are covered by the random verifier. *)

(* [(failures, pairs)] over a whole pair space, from scratch *)
let verify ?pool fam mode =
  let r =
    Framework.verdicts ?pool (Framework.of_family fam) mode ~lo:0
      ~hi:(Framework.pair_count fam mode)
  in
  (r.Framework.failures, Array.length r.Framework.verdicts)

let families () =
  [ Mds_lb.family ~k:2; Maxcut_lb.family ~k:2; Steiner_lb.family ~k:2 ]

let test_verify_exhaustive_jobs_invariant () =
  let fam = Mds_lb.family ~k:2 in
  let r1 = verify ~pool:(Lazy.force pool1) fam Framework.Exhaustive in
  let r4 = verify ~pool:(Lazy.force pool4) fam Framework.Exhaustive in
  check (fam.Framework.name ^ " exhaustive jobs=1 vs jobs=4") true (r1 = r4);
  check (fam.Framework.name ^ " no failures") true (fst r1 = 0);
  check_int (fam.Framework.name ^ " total = 2^K * 2^K") (16 * 16) (snd r1)

let test_verify_random_jobs_invariant () =
  List.iter
    (fun fam ->
      let mode = Framework.Sampled { seed = 77; samples = 8 } in
      let r1 = verify ~pool:(Lazy.force pool1) fam mode in
      let r4 = verify ~pool:(Lazy.force pool4) fam mode in
      check (fam.Framework.name ^ " random jobs=1 vs jobs=4") true (r1 = r4);
      check_int (fam.Framework.name ^ " total = samples + corners") 12 (snd r1))
    (families ())

let test_check_sidedness_jobs_invariant () =
  List.iter
    (fun fam ->
      let r1 =
        Framework.check_sidedness ~pool:(Lazy.force pool1) ~seed:5 ~samples:6 fam
      in
      let r4 =
        Framework.check_sidedness ~pool:(Lazy.force pool4) ~seed:5 ~samples:6 fam
      in
      check (fam.Framework.name ^ " sidedness jobs=1 vs jobs=4") true (r1 = r4);
      check (fam.Framework.name ^ " sidedness holds") true r1)
    (families ())

let () =
  Alcotest.run "parallel"
    [
      (* must stay first: the catalog's first touch is the point *)
      ( "catalog",
        [
          Alcotest.test_case "first touch from 4 domains" `Quick
            test_catalog_first_touch;
        ] );
      ( "pool",
        [
          Alcotest.test_case "parallel_map = List.map" `Quick
            test_parallel_map_vs_list_map;
          Alcotest.test_case "parallel_chunks" `Quick test_parallel_chunks;
          Alcotest.test_case "nested run" `Quick test_nested_run;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "worker index" `Quick test_worker_index;
        ] );
      ( "verify",
        [
          Alcotest.test_case "verify_exhaustive schedule-invariant" `Quick
            test_verify_exhaustive_jobs_invariant;
          Alcotest.test_case "verify_random schedule-invariant" `Quick
            test_verify_random_jobs_invariant;
          Alcotest.test_case "check_sidedness schedule-invariant" `Quick
            test_check_sidedness_jobs_invariant;
        ] );
    ]
