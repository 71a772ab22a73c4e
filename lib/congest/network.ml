open Ch_graph
module Obs = Ch_obs.Obs

(* Per-round traffic accounting in the spirit of the paper's Theorem 1.1
   budget line: every simulated round bumps the round counter and adds
   its message/bit volume to the totals and the per-round histograms. *)
let c_rounds = Obs.counter "congest.rounds"
let c_messages = Obs.counter "congest.messages"
let c_bits = Obs.counter "congest.bits"
let h_round_messages = Obs.histogram "congest.round_messages"
let h_round_bits = Obs.histogram "congest.round_bits"

type ctx = {
  id : int;
  n : int;
  neighbors : int array;
  edge_weight : int -> int;
  vertex_weight : int;
  out_arcs : (int * int) array;
  rng : Random.State.t Lazy.t;
}

type ('state, 'msg) algo = {
  name : string;
  init : ctx -> 'state;
  round : ctx -> round:int -> 'state -> (int * 'msg) list -> 'state * (int * 'msg) list;
  msg_bits : 'msg -> int;
  output : 'state -> int option;
}

type stats = {
  rounds : int;
  messages : int;
  total_bits : int;
  max_message_bits : int;
  bandwidth : int;
}

exception Bandwidth_exceeded of { algo : string; bits : int; bandwidth : int }

let bandwidth_for ?(factor = 8) n =
  let rec log2_ceil acc v = if v <= 1 then max acc 1 else log2_ceil (acc + 1) ((v + 1) / 2) in
  factor * log2_ceil 0 n

(* The RNG is seeded from [(seed, v)] but only built when an algorithm
   forces it: seeding costs far more than a round of most algorithms. *)
let make_ctx ~seed ~out_arcs g v =
  {
    id = v;
    n = Graph.n g;
    neighbors = Array.of_list (Graph.neighbors g v);
    edge_weight = (fun u -> Graph.edge_weight g v u);
    vertex_weight = Graph.vweight g v;
    out_arcs = out_arcs v;
    rng = lazy (Random.State.make [| seed; v |]);
  }

(* ---- stepwise execution --------------------------------------------- *)

type 'msg transfer = { t_sender : int; t_target : int; t_bits : int; t_msg : 'msg }

type 'msg step_log = {
  log_round : int;
  internal : 'msg transfer list;
  outbound : 'msg transfer list;
  sent : bool;
  all_output : bool;
}

(* Owned vertices are addressed by slot (their rank among the owned
   vertices), so a round touches only owned vertices and the messages
   they send.  The two inbox arrays alternate: one is read this round
   while the other collects the messages delivered for the next. *)
type ('state, 'msg) stepper = {
  sp_g : Graph.t;
  sp_algo : ('state, 'msg) algo;
  sp_owned : int array;  (* slot -> vertex, ascending *)
  sp_slot : int array;  (* vertex -> slot, -1 when unowned *)
  sp_ctxs : ctx array;  (* by slot *)
  sp_states : 'state array;  (* by slot *)
  mutable sp_inbox : (int * 'msg) list array;  (* by slot, read this round *)
  mutable sp_next : (int * 'msg) list array;  (* by slot, sent this round *)
  sp_stamp : int array;
      (* by target: the last sender tick that used the edge, so a second
         message on one edge in one round is caught without sorting *)
  mutable sp_tick : int;
  mutable sp_silent : int;  (* owned vertices whose output is still None *)
  sp_bandwidth : int;
  mutable sp_round : int;
  mutable sp_messages : int;
  mutable sp_total_bits : int;
  mutable sp_max_bits : int;
}

let count_silent algo states =
  Array.fold_left
    (fun acc st -> match algo.output st with None -> acc + 1 | Some _ -> acc)
    0 states

let stepper_gen ?(seed = 0) ?bandwidth_factor ?owns ~out_arcs g algo =
  let n = Graph.n g in
  let owned =
    match owns with
    | None -> Array.init n Fun.id
    | Some f -> Array.of_list (List.filter f (List.init n Fun.id))
  in
  let slot = Array.make n (-1) in
  Array.iteri (fun s v -> slot.(v) <- s) owned;
  let ctxs = Array.map (make_ctx ~seed ~out_arcs g) owned in
  let states = Array.map algo.init ctxs in
  let k = Array.length owned in
  {
    sp_g = g;
    sp_algo = algo;
    sp_owned = owned;
    sp_slot = slot;
    sp_ctxs = ctxs;
    sp_states = states;
    sp_inbox = Array.make k [];
    sp_next = Array.make k [];
    sp_stamp = Array.make n (-1);
    sp_tick = 0;
    sp_silent = count_silent algo states;
    sp_bandwidth = bandwidth_for ?factor:bandwidth_factor n;
    sp_round = 0;
    sp_messages = 0;
    sp_total_bits = 0;
    sp_max_bits = 0;
  }

let stepper ?seed ?bandwidth_factor ?owns g algo =
  stepper_gen ?seed ?bandwidth_factor ?owns ~out_arcs:(fun _ -> [||]) g algo

(* A digraph network communicates over its underlying undirected graph
   (an arc is a channel in both directions, as in the paper's directed
   constructions); the orientation itself is data, exposed to each
   vertex as its sorted out-arc list. *)
let comm_graph dg = Digraph.to_undirected dg

let stepper_directed ?seed ?bandwidth_factor ?owns dg algo =
  stepper_gen ?seed ?bandwidth_factor ?owns
    ~out_arcs:(fun v -> Array.of_list (Digraph.succ_w dg v))
    (comm_graph dg) algo

let stepper_round t = t.sp_round

let stepper_bandwidth t = t.sp_bandwidth

let stepper_owns t v = t.sp_slot.(v) >= 0

let owned_state t v =
  let s = t.sp_slot.(v) in
  if s < 0 then invalid_arg "Network.stepper: vertex not owned";
  t.sp_states.(s)

let stepper_output t v = t.sp_algo.output (owned_state t v)

let stepper_all_output t = t.sp_silent = 0

let stepper_stats t =
  {
    rounds = t.sp_round;
    messages = t.sp_messages;
    total_bits = t.sp_total_bits;
    max_message_bits = t.sp_max_bits;
    bandwidth = t.sp_bandwidth;
  }

(* The outbox checks, applied at the sender in this order to the whole
   outbox: every target adjacent, then no target twice. *)
let rec check_adjacent algo g v = function
  | [] -> ()
  | (target, _) :: rest ->
      if not (Graph.mem_edge g v target) then
        failwith
          (Printf.sprintf "Network.run: %S sent %d -> %d but they are not adjacent"
             algo.name v target);
      check_adjacent algo g v rest

let rec check_one_per_edge algo stamp tick = function
  | [] -> ()
  | (target, _) :: rest ->
      if stamp.(target) = tick then
        failwith
          (Printf.sprintf "Network.run: %S sent two messages on one edge" algo.name);
      stamp.(target) <- tick;
      check_one_per_edge algo stamp tick rest

(* Charge and route one validated outbox: owned targets get the message
   in next round's inbox, unowned ones are handed to the driver.  An
   over-bandwidth message is not sent; [over] keeps the first one's
   width and {!step} raises it only after every outbox of the round has
   passed the checks above, so a round's adjacency and one-per-edge
   violations always win over its bandwidth violations. *)
let rec send t internal outbound over v = function
  | [] -> ()
  | (target, msg) :: rest ->
      let bits = t.sp_algo.msg_bits msg in
      if bits > t.sp_bandwidth then (if !over = 0 then over := bits)
      else begin
        t.sp_messages <- t.sp_messages + 1;
        t.sp_total_bits <- t.sp_total_bits + bits;
        if bits > t.sp_max_bits then t.sp_max_bits <- bits;
        let tr = { t_sender = v; t_target = target; t_bits = bits; t_msg = msg } in
        let s = t.sp_slot.(target) in
        if s >= 0 then begin
          t.sp_next.(s) <- (v, msg) :: t.sp_next.(s);
          internal := tr :: !internal
        end
        else outbound := tr :: !outbound
      end;
      send t internal outbound over v rest

let by_sender (a, _) (b, _) = Int.compare a b

let step ?(inject = []) t =
  let algo = t.sp_algo in
  let n = Graph.n t.sp_g in
  List.iter
    (fun tr ->
      let v = tr.t_target in
      let s = if v < 0 || v >= n then -1 else t.sp_slot.(v) in
      if s < 0 then
        invalid_arg "Network.step: injected message targets an unowned vertex";
      t.sp_inbox.(s) <- (tr.t_sender, tr.t_msg) :: t.sp_inbox.(s))
    inject;
  let round = t.sp_round in
  let messages0 = t.sp_messages and bits0 = t.sp_total_bits in
  let inbox = t.sp_inbox in
  let internal = ref [] and outbound = ref [] and over = ref 0 in
  let silent = ref 0 in
  for s = 0 to Array.length t.sp_owned - 1 do
    let v = t.sp_owned.(s) in
    (* ascending sender order: at most one message per (directed) edge
       per round, so this reproduces the full run's delivery order even
       when injected cross messages interleave with internal ones *)
    let msgs =
      match inbox.(s) with ([] | [ _ ]) as m -> m | m -> List.sort by_sender m
    in
    inbox.(s) <- [];
    let state', outbox = algo.round t.sp_ctxs.(s) ~round t.sp_states.(s) msgs in
    t.sp_states.(s) <- state';
    (match algo.output state' with None -> incr silent | Some _ -> ());
    check_adjacent algo t.sp_g v outbox;
    t.sp_tick <- t.sp_tick + 1;
    check_one_per_edge algo t.sp_stamp t.sp_tick outbox;
    send t internal outbound over v outbox
  done;
  if !over > 0 then
    raise
      (Bandwidth_exceeded
         { algo = algo.name; bits = !over; bandwidth = t.sp_bandwidth });
  t.sp_inbox <- t.sp_next;
  t.sp_next <- inbox;
  t.sp_silent <- !silent;
  t.sp_round <- round + 1;
  Obs.bump c_rounds;
  Obs.incr c_messages (t.sp_messages - messages0);
  Obs.incr c_bits (t.sp_total_bits - bits0);
  Obs.observe h_round_messages (t.sp_messages - messages0);
  Obs.observe h_round_bits (t.sp_total_bits - bits0);
  {
    log_round = round;
    internal = List.rev !internal;
    outbound = List.rev !outbound;
    sent = t.sp_messages > messages0;
    all_output = !silent = 0;
  }

let default_max_rounds g = (20 * Graph.n g) + (10 * Graph.m g) + 100

(* ---- whole-network runs, rebuilt on the stepper ---------------------- *)

let run_internal ?max_rounds t =
  let max_rounds =
    match max_rounds with Some r -> r | None -> default_max_rounds t.sp_g
  in
  let quiescent = ref false in
  while (not !quiescent) || not (stepper_all_output t) do
    if t.sp_round > max_rounds then
      failwith
        (Printf.sprintf "Network.run: algorithm %S did not terminate in %d rounds"
           t.sp_algo.name max_rounds);
    quiescent := not (step t).sent
  done;
  (Array.init (Graph.n t.sp_g) (owned_state t), stepper_stats t)

let run ?seed ?bandwidth_factor ?max_rounds g algo =
  run_internal ?max_rounds (stepper ?seed ?bandwidth_factor g algo)

let run_directed ?seed ?bandwidth_factor ?max_rounds dg algo =
  run_internal ?max_rounds (stepper_directed ?seed ?bandwidth_factor dg algo)

(* ---- partitioned runs: one partial stepper per part ------------------ *)

let partition_of_side side = Array.map (fun s -> if s then 0 else 1) side

let partition_parts partition =
  if Array.length partition = 0 then
    invalid_arg "Network.partition: empty vertex set";
  let t = Array.fold_left (fun acc p -> max acc (p + 1)) 0 partition in
  Array.iter
    (fun p -> if p < 0 then invalid_arg "Network.partition: negative part id")
    partition;
  let sizes = Array.make t 0 in
  Array.iter (fun p -> sizes.(p) <- sizes.(p) + 1) partition;
  Array.iteri
    (fun p c ->
      if c = 0 then
        invalid_arg (Printf.sprintf "Network.partition: part %d is empty" p))
    sizes;
  t

type part_stats = {
  p_parts : int;
  p_stats : stats;
  p_cross_bits : int;
  p_cross_messages : int;
  p_pair_bits : int array array;
  p_pair_messages : int array array;
}

(* The generic engine: [steppers.(p)] simulates part [p]; cross-part
   transfers are re-injected into the target part at the next step, so
   the t half-runs reproduce the full run's delivery schedule exactly
   (inboxes are sorted by sender, so injection order is immaterial). *)
let run_partitioned_steppers ?max_rounds ~partition steppers =
  let t = Array.length steppers in
  let g = steppers.(0).sp_g in
  let max_rounds =
    match max_rounds with Some r -> r | None -> default_max_rounds g
  in
  let pair_bits = Array.make_matrix t t 0 in
  let pair_messages = Array.make_matrix t t 0 in
  let cross_bits = ref 0 and cross_messages = ref 0 in
  let inject = Array.make t [] in
  let quiescent = ref false in
  let all_output () = Array.for_all stepper_all_output steppers in
  while (not !quiescent) || not (all_output ()) do
    if steppers.(0).sp_round > max_rounds then
      failwith
        (Printf.sprintf "Network.run: algorithm %S did not terminate in %d rounds"
           steppers.(0).sp_algo.name max_rounds);
    let sent = ref false in
    let logs =
      Array.mapi
        (fun p sp ->
          let log = step ~inject:inject.(p) sp in
          inject.(p) <- [];
          if log.sent then sent := true;
          log)
        steppers
    in
    Array.iteri
      (fun p log ->
        List.iter
          (fun tr ->
            let q = partition.(tr.t_target) in
            pair_bits.(p).(q) <- pair_bits.(p).(q) + tr.t_bits;
            pair_messages.(p).(q) <- pair_messages.(p).(q) + 1;
            cross_bits := !cross_bits + tr.t_bits;
            incr cross_messages;
            inject.(q) <- tr :: inject.(q))
          log.outbound)
      logs;
    quiescent := not !sent
  done;
  let n = Graph.n g in
  let states = Array.init n (fun v -> owned_state steppers.(partition.(v)) v) in
  let merged =
    Array.fold_left
      (fun acc sp ->
        let s = stepper_stats sp in
        {
          acc with
          messages = acc.messages + s.messages;
          total_bits = acc.total_bits + s.total_bits;
          max_message_bits = max acc.max_message_bits s.max_message_bits;
        })
      {
        rounds = steppers.(0).sp_round;
        messages = 0;
        total_bits = 0;
        max_message_bits = 0;
        bandwidth = steppers.(0).sp_bandwidth;
      }
      steppers
  in
  {
    p_parts = t;
    p_stats = merged;
    p_cross_bits = !cross_bits;
    p_cross_messages = !cross_messages;
    p_pair_bits = pair_bits;
    p_pair_messages = pair_messages;
  }
  |> fun ps -> (states, ps)

let check_partition ~who ~n partition =
  if Array.length partition <> n then
    invalid_arg (Printf.sprintf "Network.%s: partition length" who);
  partition_parts partition

let run_partitioned ?seed ?bandwidth_factor ?max_rounds ~partition g algo =
  let t = check_partition ~who:"run_partitioned" ~n:(Graph.n g) partition in
  let steppers =
    Array.init t (fun p ->
        stepper ?seed ?bandwidth_factor ~owns:(fun v -> partition.(v) = p) g algo)
  in
  run_partitioned_steppers ?max_rounds ~partition steppers

let run_directed_partitioned ?seed ?bandwidth_factor ?max_rounds ~partition dg
    algo =
  let t =
    check_partition ~who:"run_directed_partitioned" ~n:(Digraph.n dg) partition
  in
  let steppers =
    Array.init t (fun p ->
        stepper_directed ?seed ?bandwidth_factor
          ~owns:(fun v -> partition.(v) = p)
          dg algo)
  in
  run_partitioned_steppers ?max_rounds ~partition steppers

type cut_stats = { stats : stats; cut_bits : int; cut_messages : int }

let cut_of_part_stats (states, ps) =
  ( states,
    {
      stats = ps.p_stats;
      cut_bits = ps.p_cross_bits;
      cut_messages = ps.p_cross_messages;
    } )

let run_split ?seed ?bandwidth_factor ?max_rounds ~side g algo =
  if Array.length side <> Graph.n g then invalid_arg "Network.run_split: side length";
  cut_of_part_stats
    (run_partitioned ?seed ?bandwidth_factor ?max_rounds
       ~partition:(partition_of_side side) g algo)

let run_directed_split ?seed ?bandwidth_factor ?max_rounds ~side dg algo =
  if Array.length side <> Digraph.n dg then
    invalid_arg "Network.run_directed_split: side length";
  cut_of_part_stats
    (run_directed_partitioned ?seed ?bandwidth_factor ?max_rounds
       ~partition:(partition_of_side side) dg algo)
