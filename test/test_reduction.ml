open Ch_graph
open Ch_cc
open Ch_congest
open Ch_lbgraphs
open Ch_solvers
open Ch_reduction

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- the three Theorem 1.1 target families at k = 2 ------------------ *)

let mds_spec () =
  Simulate.gather_spec ~name:"mds-k2" (Mds_lb.family ~k:2)
    ~solver:Domset.min_size
    ~accept:(fun a -> a <= Mds_lb.target_size ~k:2)

let maxis_spec () =
  Simulate.gather_spec ~name:"maxis-k2" (Maxis_lb.family ~k:2) ~solver:Mis.alpha
    ~accept:(fun a -> a >= Maxis_lb.alpha_target ~k:2)

let maxcut_spec () =
  Simulate.gather_spec ~name:"maxcut-k2" (Maxcut_lb.family ~k:2)
    ~solver:(fun g -> fst (Maxcut.max_cut g))
    ~accept:(fun a -> a >= Maxcut_lb.target_weight ~k:2)

let assert_report name (r : Bound.report) =
  check (name ^ ": transcript = run_split on every pair") true r.Bound.rep_all_match;
  check (name ^ ": decisions match f(x,y)") true r.Bound.rep_all_correct;
  check (name ^ ": cut bits within rounds*|Ecut|*B") true
    r.Bound.rep_all_within_budget

let test_mds_differential () =
  let spec = mds_spec () in
  let fam = spec.Simulate.sfam in
  let pairs, skipped = Bound.connected_pairs fam (Bound.exhaustive_pairs fam) in
  check_int "only the no-edge corner is disconnected" 1 skipped;
  let _, report = Bound.sweep spec pairs in
  check_int "255 pairs" 255 report.Bound.rep_pairs;
  assert_report "mds" report

let test_maxis_differential () =
  let spec = maxis_spec () in
  let fam = spec.Simulate.sfam in
  let pairs, skipped = Bound.connected_pairs fam (Bound.exhaustive_pairs fam) in
  check_int "only the all-ones corner is disconnected" 1 skipped;
  let _, report = Bound.sweep spec pairs in
  check_int "255 pairs" 255 report.Bound.rep_pairs;
  assert_report "maxis" report

let test_maxcut_differential () =
  let spec = maxcut_spec () in
  let fam = spec.Simulate.sfam in
  let pairs, skipped =
    Bound.connected_pairs fam (Bound.sampled_pairs fam ~seed:41 ~samples:4)
  in
  check_int "maxcut instances always connected" 0 skipped;
  let _, report = Bound.sweep spec pairs in
  check_int "corners + 4 samples" 8 report.Bound.rep_pairs;
  assert_report "maxcut" report

(* ---- trace regression: the events replay the charged transcript ------ *)

let test_trace_replays_transcript () =
  let spec = mds_spec () in
  let x = Bits.random ~seed:7 4 and y = Bits.random ~seed:8 4 in
  let sink, events = Trace.collector () in
  let t = spec.Simulate.srun ~trace:sink x y in
  let r = spec.Simulate.sref x y in
  check_int "run_split oracle agrees" r.Simulate.ref_cut_bits
    t.Simulate.cut_bits;
  let events = events () in
  let cut_msg_bits, cut_msgs, round_cut_bits, last_cum =
    List.fold_left
      (fun (mb, mc, rb, _) ev ->
        match ev with
        | Trace.Msg { cut = true; bits; cum_cut_bits; edge; _ } ->
            check "cut message has a cut-edge index" true (edge <> None);
            (mb + bits, mc + 1, rb, cum_cut_bits)
        | Trace.Msg { cut = false; edge; cum_cut_bits; _ } ->
            check "internal message has no cut-edge index" true (edge = None);
            (mb, mc, rb, cum_cut_bits)
        | Trace.Round { cut_bits; cum_cut_bits; _ } ->
            (mb, mc, rb + cut_bits, cum_cut_bits))
      (0, 0, 0, 0) events
  in
  check_int "sum of cut Msg bits = transcript cut_bits" t.Simulate.cut_bits
    cut_msg_bits;
  check_int "sum of Round cut_bits = transcript cut_bits" t.Simulate.cut_bits
    round_cut_bits;
  check_int "cut Msg count = transcript cut_messages" t.Simulate.cut_messages
    cut_msgs;
  check_int "final cumulative = transcript cut_bits" t.Simulate.cut_bits
    last_cum;
  check_int "one Round event per round" t.Simulate.rounds
    (List.length
       (List.filter (function Trace.Round _ -> true | _ -> false) events))

let test_trace_json () =
  let spec = maxis_spec () in
  let sink, events = Trace.collector () in
  let _ = spec.Simulate.srun ~trace:sink (Bits.ones 4) (Bits.zeros 4) in
  List.iter
    (fun ev ->
      let s = Trace.to_json ev in
      check "json object" true
        (String.length s > 2 && s.[0] = '{' && s.[String.length s - 1] = '}'))
    (events ())

(* ---- bandwidth accounting: msg_bits is honest for every algorithm ---- *)

(* run [algo] on [g] through a full-graph stepper and hand every message
   sent to [f] *)
let iter_messages (algo : ('s, 'm) Network.algo) g f =
  let t = Network.stepper g algo in
  let quiescent = ref false in
  let guard = Network.default_max_rounds g in
  while (not !quiescent) || not (Network.stepper_all_output t) do
    if Network.stepper_round t > guard then
      failwith ("iter_messages: " ^ algo.Network.name ^ " did not terminate");
    let log = Network.step t in
    List.iter (fun tr -> f tr.Network.t_bits tr.Network.t_msg) log.Network.internal;
    quiescent := not log.Network.sent
  done

let check_codec_on name algo codec g =
  let bw = Network.bandwidth_for (Graph.n g) in
  let seen = ref 0 in
  iter_messages algo g (fun bits msg ->
      incr seen;
      check_int
        (Printf.sprintf "%s: |enc m| = msg_bits m" name)
        bits
        (List.length (codec.Codec.enc msg));
      check (Printf.sprintf "%s: msg_bits <= bandwidth_for n" name) true
        (bits <= bw));
  check (name ^ ": exercised some messages") true (!seen > 0)

let test_codec_bfs () =
  List.iter
    (fun seed ->
      let g = Gen.random_connected ~seed 17 0.2 in
      let n = Graph.n g in
      check_codec_on "bfs" (Bfs.algo ~root:0 ~n) (Codec.bfs ~n) g)
    [ 1; 2; 3 ]

let test_codec_leader () =
  List.iter
    (fun seed ->
      let g = Gen.random_connected ~seed 15 0.2 in
      let n = Graph.n g in
      check_codec_on "leader" (Leader.algo ~n) (Codec.leader ~n) g)
    [ 4; 5; 6 ]

let test_codec_mis_greedy () =
  List.iter
    (fun seed ->
      let g = Gen.random_connected ~seed 16 0.25 in
      check_codec_on "mis-greedy" Mis_greedy.algo Codec.mis_greedy g)
    [ 7; 8; 9 ]

let test_codec_mds_greedy () =
  List.iter
    (fun seed ->
      let g = Gen.random_connected ~seed 12 0.3 in
      let n = Graph.n g in
      check_codec_on "mds-greedy" (Mds_greedy.algo ~n) Codec.mds_greedy g)
    [ 10; 11; 12 ]

let test_codec_gather () =
  List.iter
    (fun seed ->
      let g = Gen.random_weights ~seed (Gen.random_connected ~seed 13 0.25) in
      check_codec_on "gather"
        (Gather.algo ~root:0 ~f:Graph.m ())
        Codec.gather g)
    [ 13; 14; 15 ];
  (* the lower-bound instances themselves, where the codec must also hold *)
  List.iter
    (fun (fam : Ch_core.Framework.t) ->
      match fam.Ch_core.Framework.build (Bits.ones 4) (Bits.random ~seed:21 4) with
      | Ch_core.Framework.Undirected g ->
          check_codec_on "gather-lb"
            (Gather.algo ~root:0 ~f:Graph.m ())
            Codec.gather g
      | _ -> Alcotest.fail "undirected family expected")
    [ Mds_lb.family ~k:2; Maxis_lb.family ~k:2; Maxcut_lb.family ~k:2 ]

(* ---- run_split cut accounting vs the stepper-derived trace ----------- *)

let test_run_split_matches_trace () =
  let fam = Maxis_lb.family ~k:2 in
  List.iter
    (fun seed ->
      let x = Bits.random ~seed 4 and y = Bits.random ~seed:(seed + 100) 4 in
      let spec = maxis_spec () in
      let sink, events = Trace.collector () in
      let t = spec.Simulate.srun ~trace:sink x y in
      let g =
        match fam.Ch_core.Framework.build x y with
        | Ch_core.Framework.Undirected g -> g
        | _ -> Alcotest.fail "undirected"
      in
      let _, cs =
        Gather.solve_split ~side:fam.Ch_core.Framework.side g ~f:Mis.alpha
      in
      let per_round =
        List.filter_map
          (function Trace.Round { cut_bits; _ } -> Some cut_bits | _ -> None)
          (events ())
      in
      check_int "run_split cut_bits = sum of per-round trace cut bits"
        cs.Network.cut_bits
        (List.fold_left ( + ) 0 per_round);
      check_int "and equals the charged transcript" cs.Network.cut_bits
        t.Simulate.cut_bits)
    [ 31; 32; 33 ]

(* ---- bound report arithmetic ----------------------------------------- *)

let test_report_figures () =
  let spec = mds_spec () in
  let fam = spec.Simulate.sfam in
  let pairs, _ =
    Bound.connected_pairs fam (Bound.sampled_pairs fam ~seed:3 ~samples:2)
  in
  let rows, report = Bound.sweep spec pairs in
  check_int "rows = pairs" (List.length pairs) (List.length rows);
  check_int "cc bits for DISJ_K is K" fam.Ch_core.Framework.input_bits
    report.Bound.rep_cc_bits;
  check "lb rounds positive" true (report.Bound.rep_lb_rounds > 0.0);
  check "bits per round positive" true (report.Bound.rep_bits_per_round > 0.0);
  check "cut matches the framework descriptor" true
    (report.Bound.rep_cut = Ch_core.Framework.cut_size fam)

let test_exhaustive_guard () =
  Alcotest.check_raises "K > 5 rejected"
    (Invalid_argument "Bound.exhaustive_pairs: K > 5") (fun () ->
      ignore (Bound.exhaustive_pairs (Mds_lb.family ~k:8)))

(* ---- multiparty conservation laws (qcheck) --------------------------- *)

let qt = QCheck_alcotest.to_alcotest
let bits_of_int w v = Bits.of_fun w (fun b -> v land (1 lsl b) <> 0)

(* a valid t-part partition of n vertices: parts 0..t-1 all inhabited
   (vertex p pinned to part p), the rest uniform *)
let gen_partition n =
  QCheck.Gen.(
    int_range 2 4 >>= fun t ->
    array_size (return n) (int_bound (t - 1)) >>= fun a ->
    for p = 0 to t - 1 do
      a.(p) <- p
    done;
    return a)

let print_case (partition, xi, yi) =
  Printf.sprintf "partition=[|%s|] x=%d y=%d"
    (String.concat ";" (Array.to_list (Array.map string_of_int partition)))
    xi yi

(* property (i): whatever the partition, the bits the simulation charges
   through the part-pair channels are exactly the engine's cross-part
   accounting — nothing leaks, nothing is double-charged *)
let prop_partition_conservation =
  let fam = Mds_lb.family ~k:2 in
  let target = Mds_lb.target_size ~k:2 in
  let algo () = Gather.algo ~root:0 ~f:Domset.min_size () in
  QCheck.Test.make ~count:60
    ~name:"any t-partition: charged cut bits = run_partitioned cross bits"
    (QCheck.make ~print:print_case
       QCheck.Gen.(
         triple
           (gen_partition fam.Ch_core.Framework.nvertices)
           (int_bound 15) (int_bound 15)))
    (fun (partition, xi, yi) ->
      let x = bits_of_int 4 xi and y = bits_of_int 4 yi in
      match fam.Ch_core.Framework.build x y with
      | Ch_core.Framework.Undirected g ->
          if not (Props.connected g) then true
          else
            let t =
              Simulate.lockstep_partitioned fam ~partition ~algo:(algo ())
                ~codecs:(Codec.uniform Codec.gather)
                ~accept:(fun a -> a <= target)
                x y
            in
            let _, ps = Network.run_partitioned ~partition g (algo ()) in
            t.Simulate.parties = ps.Network.p_parts
            && t.Simulate.cut_bits = ps.Network.p_cross_bits
            && t.Simulate.cut_messages = ps.Network.p_cross_messages
            && t.Simulate.rounds = ps.Network.p_stats.Network.rounds
      | _ -> false)

(* property (ii): at t=2 the generalized engine is bit-identical to the
   historical Alice/Bob path — exhaustively, over every connected k=2
   MDS and MaxIS instance *)
let test_t2_bit_identity () =
  List.iter
    (fun (name, spec) ->
      let fam = spec.Simulate.sfam in
      let kbits = fam.Ch_core.Framework.input_bits in
      for xi = 0 to (1 lsl kbits) - 1 do
        for yi = 0 to (1 lsl kbits) - 1 do
          let x = bits_of_int kbits xi and y = bits_of_int kbits yi in
          match fam.Ch_core.Framework.build x y with
          | Ch_core.Framework.Undirected g when Props.connected g ->
              let t = spec.Simulate.srun x y in
              let r = spec.Simulate.sref x y in
              let tag what = Printf.sprintf "%s %d/%d %s" name xi yi what in
              check_int (tag "answer") r.Simulate.ref_answer t.Simulate.answer;
              check_int (tag "cut bits") r.Simulate.ref_cut_bits
                t.Simulate.cut_bits;
              check_int (tag "cut messages") r.Simulate.ref_cut_messages
                t.Simulate.cut_messages;
              check_int (tag "rounds") r.Simulate.ref_rounds t.Simulate.rounds;
              check_int (tag "parties") 2 t.Simulate.parties
          | _ -> ()
        done
      done)
    [ ("mds", mds_spec ()); ("maxis", maxis_spec ()) ]

(* the t=2 wrapper and an explicit side-derived 2-partition emit the very
   same trace, event for event *)
let test_t2_wrapper_trace_identity () =
  let fam = Mds_lb.family ~k:2 in
  let target = Mds_lb.target_size ~k:2 in
  let accept a = a <= target in
  List.iter
    (fun seed ->
      let x = Bits.random ~seed 4 and y = Bits.random ~seed:(seed + 60) 4 in
      let sink2, events2 = Trace.collector () in
      let t2 =
        Simulate.lockstep ~trace:sink2 fam
          ~algo:(Gather.algo ~root:0 ~f:Domset.min_size ())
          ~codec:Codec.gather ~accept x y
      in
      let sinkp, eventsp = Trace.collector () in
      let tp =
        Simulate.lockstep_partitioned ~trace:sinkp fam
          ~partition:(Network.partition_of_side fam.Ch_core.Framework.side)
          ~algo:(Gather.algo ~root:0 ~f:Domset.min_size ())
          ~codecs:(Codec.uniform Codec.gather)
          ~accept x y
      in
      check_int "same cut bits" t2.Simulate.cut_bits tp.Simulate.cut_bits;
      Alcotest.(check (list string))
        "identical event streams"
        (List.map Trace.to_json (events2 ()))
        (List.map Trace.to_json (eventsp ())))
    [ 71; 72; 73 ]

(* ---- the first genuinely multiparty workload ------------------------- *)

let test_bitgadget_t4_differential () =
  match
    Simulate.registry_spec
      (Ch_core.Registry.find_exn (Families.catalog ()) "bitgadget")
      ~k:2
  with
  | None -> Alcotest.fail "bitgadget spec carries a reduction"
  | Some spec ->
      check_int "t=4" 4 spec.Simulate.sparties;
      let fam = spec.Simulate.sfam in
      let pairs, skipped =
        Bound.connected_pairs fam (Bound.exhaustive_pairs fam)
      in
      check "some pool-empty corners are disconnected" true (skipped > 0);
      let _, report = Bound.sweep spec pairs in
      assert_report "bitgadget" report;
      check_int "report says t=4" 4 report.Bound.rep_parties

(* ---- golden transcripts ---------------------------------------------- *)

(* Fixed sampled pairs of three registry reductions, each pinned by the
   MD5 of its collected trace rendered with [Trace.to_json] (one line per
   event) and by every pair's transcript fields (rounds, cut_bits,
   cut_messages, internal_bits, answer).  The expected values were
   recorded from the round engine as it stood before its allocation-lean
   rewrite, so a change to the delivery schedule, the charging or the
   events fails here even when the lockstep run still agrees with its
   own run_split oracle. *)
let golden_case ~id ~k =
  match
    Simulate.registry_spec
      (Ch_core.Registry.find_exn (Families.catalog ()) id)
      ~k
  with
  | None -> Alcotest.fail (id ^ ": no reduction")
  | Some spec ->
      let fam = spec.Simulate.sfam in
      let pairs, _ =
        Bound.connected_pairs fam (Bound.sampled_pairs fam ~seed:5 ~samples:2)
      in
      let sink, events = Trace.collector () in
      let fields =
        List.map
          (fun (x, y) ->
            let t = spec.Simulate.srun ~trace:sink x y in
            Simulate.
              (t.rounds, t.cut_bits, t.cut_messages, t.internal_bits, t.answer))
          pairs
      in
      let stream = String.concat "\n" (List.map Trace.to_json (events ())) in
      (spec.Simulate.sparties, Digest.to_hex (Digest.string stream), fields)

let check_golden ~id ~k ~parties ~digest ~fields () =
  let t, d, f = golden_case ~id ~k in
  check_int (id ^ ": parties") parties t;
  let rows = List.map (fun (r, cb, cm, ib, a) -> [ r; cb; cm; ib; a ]) in
  Alcotest.(check (list (list int)))
    (id ^ ": rounds, cut_bits, cut_messages, internal_bits, answer per pair")
    (rows fields) (rows f);
  Alcotest.(check string) (id ^ ": trace digest") digest d

let test_golden_mds =
  check_golden ~id:"mds" ~k:2 ~parties:2
    ~digest:"4513732e8d0c8e17ae30e917b68b5f12"
    ~fields:
      [
        (53, 315, 42, 1548, 6);
        (45, 275, 38, 1360, 7);
        (75, 543, 64, 2121, 7);
        (54, 305, 41, 1463, 6);
        (53, 316, 42, 1637, 6);
      ]

let test_golden_hampath =
  check_golden ~id:"hampath" ~k:2 ~parties:2
    ~digest:"7cc748ba7f1e613ef3708420b65d22be"
    ~fields:
      [
        (178, 2768, 262, 6080, 0);
        (184, 1176, 125, 7548, 1);
        (182, 1168, 133, 7508, 0);
        (180, 1938, 190, 6874, 0);
        (181, 1164, 124, 7406, 1);
        (182, 1458, 148, 7302, 1);
      ]

let test_golden_bitgadget =
  check_golden ~id:"bitgadget" ~k:8 ~parties:4
    ~digest:"07fcf4954ff8ad3bbf99cc62eb7b91a3"
    ~fields:
      [
        (98, 3841, 411, 1615, 8);
        (97, 3680, 405, 1392, 8);
        (101, 3712, 407, 1401, 8);
      ]

(* the one algorithm that draws on the per-vertex rng: its sample, and so
   every figure below, depends on the [(seed, v)] seeding *)
let test_golden_maxcut_sample () =
  let g = Gen.gnp ~seed:23 20 0.7 in
  let r = Maxcut_sample.run ~seed:3 g in
  let s = r.Maxcut_sample.stats in
  Alcotest.(check (list int))
    "estimate, sample optimum, sampled edges, rounds, messages, bits"
    [ 98; 65; 98; 53; 457; 3012; 14 ]
    [
      r.Maxcut_sample.estimate;
      r.Maxcut_sample.sample_optimum;
      r.Maxcut_sample.sampled_edges;
      s.Network.rounds;
      s.Network.messages;
      s.Network.total_bits;
      s.Network.max_message_bits;
    ]

(* ---- CONGEST-model guards --------------------------------------------- *)

(* A connected MDS k=2 instance and probe algorithms on it: in round 0
   every vertex sends [send ctx]; every vertex outputs after its first
   round unless [halts] is false. *)
let guard_fam = Mds_lb.family ~k:2
let guard_x = Bits.random ~seed:7 4
let guard_y = Bits.random ~seed:8 4

let guard_graph () =
  match guard_fam.Ch_core.Framework.build guard_x guard_y with
  | Ch_core.Framework.Undirected g when Props.connected g -> g
  | _ -> Alcotest.fail "connected undirected instance expected"

let probe ?(bits = fun _ -> 1) ?(halts = true) name send :
    (bool, int) Network.algo =
  {
    Network.name;
    init = (fun _ -> false);
    round =
      (fun ctx ~round _ _ ->
        (true, if round = 0 then send ctx else []));
    msg_bits = bits;
    output = (fun ran -> if halts && ran then Some 0 else None);
  }

let one_bit = { Codec.cname = "one-bit"; enc = (fun _ -> [ true ]) }

(* vertex 0 alone against the rest, and the family's own Alice/Bob side:
   the first puts every target of vertex 0 in another part, the second
   keeps some in its own *)
let guard_partitions g =
  [
    Array.init (Graph.n g) (fun v -> if v = 0 then 0 else 1);
    Network.partition_of_side guard_fam.Ch_core.Framework.side;
  ]

let raises_everywhere ?max_rounds ?lockstep_exn ?partitions ~exn algo =
  let g = guard_graph () in
  let partitions = Option.value partitions ~default:(guard_partitions g) in
  Alcotest.check_raises "Network.run" exn (fun () ->
      ignore (Network.run ?max_rounds g algo));
  List.iter
    (fun partition ->
      Alcotest.check_raises "Simulate.lockstep_partitioned"
        (Option.value lockstep_exn ~default:exn)
        (fun () ->
          ignore
            (Simulate.lockstep_partitioned ?max_rounds guard_fam ~partition ~algo
               ~codecs:(Codec.uniform one_bit) ~accept:(fun _ -> true)
               guard_x guard_y)))
    partitions

let first_neighbor ctx = ctx.Network.neighbors.(0)

(* only vertex 0 sends *)
let from0 f ctx = if ctx.Network.id = 0 then f ctx else []

let non_neighbor g v =
  List.find
    (fun w -> w <> v && not (Graph.mem_edge g v w))
    (List.init (Graph.n g) Fun.id)

let test_guard_non_neighbor () =
  let w = non_neighbor (guard_graph ()) 0 in
  raises_everywhere
    ~exn:
      (Failure
         (Printf.sprintf
            "Network.run: \"far\" sent 0 -> %d but they are not adjacent" w))
    (probe "far" (from0 (fun _ -> [ (w, 1) ])))

let test_guard_one_per_edge () =
  raises_everywhere
    ~exn:(Failure "Network.run: \"dup\" sent two messages on one edge")
    (probe "dup"
       (from0 (fun ctx -> [ (first_neighbor ctx, 1); (first_neighbor ctx, 2) ])))

let test_guard_bandwidth () =
  let bw = Network.bandwidth_for (Graph.n (guard_graph ())) in
  raises_everywhere
    ~exn:
      (Network.Bandwidth_exceeded
         { algo = "wide"; bits = bw + 1; bandwidth = bw })
    (probe ~bits:(fun _ -> bw + 1) "wide"
       (from0 (fun ctx -> [ (first_neighbor ctx, 1) ])))

(* the outbox checks of a whole round fire before its bandwidth check:
   vertex 0's over-wide message loses to the last vertex's send to a
   non-neighbour when one stepper runs both (across parts, the parts'
   step order decides) *)
let test_guard_check_order () =
  let g = guard_graph () in
  let n = Graph.n g in
  let z = n - 1 in
  let w = non_neighbor g z in
  let bw = Network.bandwidth_for n in
  raises_everywhere
    ~partitions:[ Array.init n (fun v -> if v = 0 || v = z then 0 else 1) ]
    ~exn:
      (Failure
         (Printf.sprintf
            "Network.run: \"mixed\" sent %d -> %d but they are not adjacent" z w))
    (probe
       ~bits:(fun m -> if m = 2 then bw + 1 else 1)
       "mixed"
       (fun ctx ->
         if ctx.Network.id = 0 then [ (first_neighbor ctx, 2) ]
         else if ctx.Network.id = z then [ (w, 1) ]
         else []))

let test_guard_round_limit () =
  raises_everywhere ~max_rounds:5
    ~exn:(Failure "Network.run: algorithm \"spin\" did not terminate in 5 rounds")
    ~lockstep_exn:
      (Failure
         "Simulate.lockstep_partitioned: \"spin\" did not terminate in 5 rounds")
    (probe ~halts:false "spin" (fun _ -> []))

(* a partial stepper only accepts cross messages for vertices it owns *)
let test_guard_unowned_inject () =
  let g = guard_graph () in
  let n = Graph.n g in
  let algo = probe "idle" (fun _ -> []) in
  List.iter
    (fun target ->
      let sp = Network.stepper ~owns:(fun v -> v <> 3) g algo in
      Alcotest.check_raises
        (Printf.sprintf "inject to %d" target)
        (Invalid_argument
           "Network.step: injected message targets an unowned vertex")
        (fun () ->
          ignore
            (Network.step
               ~inject:
                 [
                   { Network.t_sender = 0; t_target = target; t_bits = 1; t_msg = 0 };
                 ]
               sp)))
    [ 3; -1; n ]

let test_guard_codec_mismatch () =
  let g = guard_graph () in
  Alcotest.check_raises "a short payload is refused"
    (Simulate.Codec_mismatch { algo = "mute"; declared = 1; encoded = 0 })
    (fun () ->
      ignore
        (Simulate.lockstep_partitioned guard_fam
           ~partition:(List.hd (guard_partitions g))
           ~algo:(probe "mute" (from0 (fun ctx -> [ (first_neighbor ctx, 1) ])))
           ~codecs:(Codec.uniform { Codec.cname = "empty"; enc = (fun _ -> []) })
           ~accept:(fun _ -> true) guard_x guard_y))

let () =
  Alcotest.run "reduction"
    [
      ( "differential",
        [
          Alcotest.test_case "mds k=2 exhaustive" `Slow test_mds_differential;
          Alcotest.test_case "maxis k=2 exhaustive" `Slow test_maxis_differential;
          Alcotest.test_case "maxcut k=2 sampled" `Slow test_maxcut_differential;
        ] );
      ( "trace",
        [
          Alcotest.test_case "events replay transcript" `Quick
            test_trace_replays_transcript;
          Alcotest.test_case "json events" `Quick test_trace_json;
          Alcotest.test_case "run_split vs trace" `Quick
            test_run_split_matches_trace;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "bfs" `Quick test_codec_bfs;
          Alcotest.test_case "leader" `Quick test_codec_leader;
          Alcotest.test_case "mis-greedy" `Quick test_codec_mis_greedy;
          Alcotest.test_case "mds-greedy" `Quick test_codec_mds_greedy;
          Alcotest.test_case "gather" `Quick test_codec_gather;
        ] );
      ( "bound",
        [
          Alcotest.test_case "report figures" `Quick test_report_figures;
          Alcotest.test_case "exhaustive guard" `Quick test_exhaustive_guard;
        ] );
      ( "multiparty",
        [
          qt prop_partition_conservation;
          Alcotest.test_case "t=2 bit-identity (exhaustive)" `Slow
            test_t2_bit_identity;
          Alcotest.test_case "t=2 wrapper trace identity" `Quick
            test_t2_wrapper_trace_identity;
          Alcotest.test_case "bitgadget t=4 exhaustive differential" `Slow
            test_bitgadget_t4_differential;
        ] );
      ( "golden",
        [
          Alcotest.test_case "mds k=2 (t=2)" `Quick test_golden_mds;
          Alcotest.test_case "hampath k=2 (directed)" `Quick test_golden_hampath;
          Alcotest.test_case "bitgadget k=8 (t=4)" `Quick test_golden_bitgadget;
          Alcotest.test_case "maxcut sample (per-vertex rng)" `Quick
            test_golden_maxcut_sample;
        ] );
      ( "guards",
        [
          Alcotest.test_case "send to a non-neighbour" `Quick
            test_guard_non_neighbor;
          Alcotest.test_case "two messages on one edge" `Quick
            test_guard_one_per_edge;
          Alcotest.test_case "over-bandwidth message" `Quick test_guard_bandwidth;
          Alcotest.test_case "outbox checks before bandwidth" `Quick
            test_guard_check_order;
          Alcotest.test_case "round guard" `Quick test_guard_round_limit;
          Alcotest.test_case "inject to an unowned vertex" `Quick
            test_guard_unowned_inject;
          Alcotest.test_case "codec mismatch" `Quick test_guard_codec_mismatch;
        ] );
    ]
