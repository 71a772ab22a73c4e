(* The benchmark worker: one fresh process per measured set-up or run.

   [worker.exe --workload W --seed S --ops N --tmp DIR [--trace]
   [--setup-only] [--socket PATH --t0-ns T]] resolves the workload's
   families and builds its cold state, prints [READY <kernel ns>] on
   stdout (run.py timestamps that line to get set-up time), runs the
   fixed op list generated from the seed, checks every op's output
   against f(x,y) outside the timed phase, and writes DIR/result.json:
   per-op latencies, pair counts, failing ops and the speed kernel's
   timings; traced runs add the Ch_obs reports (DIR/obs_setup.json,
   DIR/obs.json) and the benchmark's own spans (DIR/spans.tsv).  All
   arithmetic on those numbers (percentiles, self times, ratios) lives
   in stats.py. *)

module Obs = Ch_obs.Obs
module Framework = Ch_core.Framework
module Registry = Ch_core.Registry
module Families = Ch_lbgraphs.Families
module Sweep = Ch_sweep.Sweep
module Shard = Ch_sweep.Shard
module Store = Ch_sweep.Store
module Bound = Ch_reduction.Bound
module Simulate = Ch_reduction.Simulate
module Client = Ch_serve.Client
module Protocol = Ch_serve.Protocol
module Server = Ch_serve.Server
module Jsonx = Ch_serve.Jsonx

let now = Obs.Clock.now_ns
let us_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e3

(* ---- the benchmark's own spans, around each public call ---- *)

module Spans = struct
  type t = {
    id : int;
    parent : int;
    op : int;
    name : string;
    t0 : int64;
    t1 : int64;
  }

  let on = ref false
  let lock = Mutex.create ()
  let recorded : t list ref = ref []
  let next = Atomic.make 0

  (* [f] receives the new span's id, to pass as its children's parent;
     with tracing off nothing is recorded and [f] gets -1. *)
  let with_ ?(parent = -1) ~op name f =
    if not !on then f (-1)
    else
      let id = Atomic.fetch_and_add next 1 in
      let t0 = now () in
      let close () =
        let t1 = now () in
        Mutex.protect lock (fun () ->
            recorded := { id; parent; op; name; t0; t1 } :: !recorded)
      in
      match f id with
      | v ->
          close ();
          v
      | exception e ->
          close ();
          raise e

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\n" s.id s.parent s.op s.name
          s.t0 s.t1)
      (List.rev !recorded);
    close_out oc
end

(* ---- run state reported in result.json ---- *)

let failures : Jsonx.t list ref = ref []

let fail ~op ~family ~k ~seed ~pair why =
  Printf.eprintf "FAILED op %d: family=%s k=%d seed=%d pair=%d: %s\n%!" op family
    k seed pair why;
  failures :=
    Jsonx.Obj
      [
        ("op", Jsonx.Int op);
        ("family", Jsonx.Str family);
        ("k", Jsonx.Int k);
        ("seed", Jsonx.Int seed);
        ("pair", Jsonx.Int pair);
        ("why", Jsonx.Str why);
      ]
    :: !failures

let extras : (string * Jsonx.t) list ref = ref []
let extra name v = extras := (name, v) :: !extras
let extra_int name v = extra name (Jsonx.Int v)
let ints a = Jsonx.Arr (Array.to_list (Array.map (fun v -> Jsonx.Int v) a))
let extra_floats name vs = extra name (Jsonx.Arr (List.map (fun v -> Jsonx.Float v) vs))

(* ---- the host's speed, timed beside the work ---- *)

(* A fixed allocation-heavy kernel: short lists into a small Hashtbl, the
   same minor-heap and hashing work the workloads do.  A shared host's
   speed drifts by tens of percent within seconds; stats.py scales each
   group of ops by this kernel's time around it (README: "Reference
   speed").  Of the kernels tried (integer arithmetic, pointer chasing,
   allocation), this one tracked the workloads' slowdowns best. *)
module Speed = struct
  let sink = ref 0

  let kernel_ns () =
    let t0 = now () in
    let h = Hashtbl.create 64 in
    for i = 1 to 20_000 do
      Hashtbl.replace h (i land 1023) [ i; i + 1; i + 2 ]
    done;
    sink := !sink + Hashtbl.length h;
    Int64.sub (now ()) t0

  let marks : int64 list ref = ref []
  let walls : float list ref = ref []
end

(* Run units [0, n) in groups of [group], timing the kernel at every
   group boundary and recording each group's wall time. *)
let timed_groups ~group n unit =
  let i = ref 0 in
  while !i < n do
    Speed.marks := Speed.kernel_ns () :: !Speed.marks;
    let t0 = now () in
    let last = min n (!i + group) in
    for j = !i to last - 1 do
      unit j
    done;
    let w = Int64.to_float (Int64.sub (now ()) t0) /. 1e9 in
    Speed.walls := w :: !Speed.walls;
    i := last
  done;
  Speed.marks := Speed.kernel_ns () :: !Speed.marks

let op_groups ~group n = Array.init n (fun i -> i / group)

(* ---- inputs derived from the seed ---- *)

let spec id = Registry.find_exn (Families.catalog ()) id

(* Plan seeds are spaced 2^16 apart: a sampled plan draws its pairs from
   seeds [seed + 2i], so plans closer than that would share pairs. *)
let plan_seed ~seed j = (((seed land 0xFFFFF) lsl 20) + j + 1) lsl 16

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [n] family indices in seeded order, family [f] taking a fixed share
   proportional to [weights.(f)] (equal shares by default) *)
let family_order ?weights rng ~nfam n =
  let weights = Option.value weights ~default:(Array.make nfam 1) in
  let cycle =
    Array.concat (Array.to_list (Array.mapi (fun f w -> Array.make w f) weights))
  in
  let a = Array.init n (fun i -> cycle.(i mod Array.length cycle)) in
  shuffle rng a;
  a

(* A balanced op schedule: op [i] is of family [order.(i)]; when
   [repeat i] holds it re-uses a uniformly chosen earlier fresh plan of
   that family (a fresh one while there is none).  Returns
   (family, plan seed, repeated) per op. *)
let schedule rng ~nfam ~repeat ~fresh_seed n =
  let order = family_order rng ~nfam n in
  let earlier = Array.make nfam [||] in
  Array.mapi
    (fun i fi ->
      let seeds = earlier.(fi) in
      if repeat i && Array.length seeds > 0 then
        (fi, seeds.(Random.State.int rng (Array.length seeds)), true)
      else begin
        let s = fresh_seed i in
        earlier.(fi) <- Array.append seeds [| s |];
        (fi, s, false)
      end)
    order

(* f over a sampled plan's pairs: the verdict stream every lower-bound
   family must produce. *)
let f_stream fam ~seed ~samples =
  let gen = Shard.generator fam (Shard.Sampled { seed; samples }) in
  Array.init (samples + 4) (fun i ->
      let x, y = gen i in
      fam.Framework.f x y)

(* the first index where two streams differ, or -1 when they are equal *)
let first_diff a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then if Array.length a = Array.length b then -1 else n
    else if a.(i) <> b.(i) then i
    else go (i + 1)
  in
  go 0

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  let v = scan () in
  close_in ic;
  v

(* ---- verify-tables: one op per sampled plan, in-process ---- *)

(* One family per Cache memo kind.  Sample counts give every plan about
   the same cost (per-pair costs differ by ~400x across kinds). *)
let table_families =
  [
    ("maxcut", 2, 1200);
    ("maxis", 8, 500);
    ("maxis-78-weighted", 4, 234);
    ("steiner-node-weighted", 8, 122);
    ("steiner", 2, 0);
    ("2mds", 8, 262);
    ("steiner-directed", 2, 84);
    ("hampath", 2, 4);
  ]

type tfam = {
  t_id : string;
  t_k : int;
  t_samples : int;
  t_inc : Framework.incremental;
}

let resolve_tables () =
  Array.of_list
    (List.map
       (fun (id, k, samples) ->
         let inc =
           match (spec id).Registry.incremental with
           | Some incf -> incf k
           | None -> failwith (id ^ ": no incremental engine")
         in
         { t_id = id; t_k = k; t_samples = samples; t_inc = inc })
       table_families)

(* the verify-tables plan list: (family index, plan seed) *)
let table_plans ~seed n =
  let rng = Random.State.make [| seed; 1 |] in
  let order = family_order rng ~nfam:(List.length table_families) n in
  Array.mapi (fun j fi -> (fi, plan_seed ~seed j)) order

(* the first pair index where a prepared engine disagrees with f *)
let locate_table tf ~seed =
  let fam = tf.t_inc.Framework.scratch in
  let p = tf.t_inc.Framework.prepare () in
  let want = f_stream fam ~seed ~samples:tf.t_samples in
  first_diff want
    (Array.init (tf.t_samples + 4) (fun i ->
         let x, y = Framework.random_pair_at fam ~seed i in
         p.Framework.pverdict x y))

(* ops per speed-timed group *)
let table_group = 1

let run_tables ~seed ~ops ~setup_only ~ready =
  let fams = resolve_tables () in
  (* cold state: one plan per family builds the memo tables *)
  Array.iteri
    (fun fi tf ->
      ignore
        (Framework.verify_random_inc ~seed:(plan_seed ~seed:(seed + 1) fi)
           ~samples:tf.t_samples tf.t_inc))
    fams;
  ready ();
  if setup_only then (0, [||])
  else begin
    let plans = table_plans ~seed ops in
    let lat = Array.make ops 0. in
    let pairs = ref 0 in
    let hits = ref 0 and misses = ref 0 in
    let outcome = Array.make ops (-1) in
    let streams = Array.make ops [||] in
    timed_groups ~group:table_group ops (fun i ->
        let fi, pseed = plans.(i) in
        let tf = fams.(fi) in
        let fam = tf.t_inc.Framework.scratch in
        let total = tf.t_samples + 4 in
        let t0 = now () in
        if !Spans.on then begin
          streams.(i) <-
            Spans.with_ ~op:i "plan" (fun sp ->
                let p =
                  Spans.with_ ~parent:sp ~op:i "framework.prepare" (fun _ ->
                      tf.t_inc.Framework.prepare ())
                in
                let v =
                  Array.init total (fun j ->
                      let x, y =
                        Spans.with_ ~parent:sp ~op:i "framework.pairgen" (fun _ ->
                            Framework.random_pair_at fam ~seed:pseed j)
                      in
                      Spans.with_ ~parent:sp ~op:i "framework.pverdict" (fun _ ->
                          p.Framework.pverdict x y))
                in
                let st = p.Framework.pstats () in
                hits := !hits + st.Framework.cache_hits;
                misses := !misses + st.Framework.cache_misses;
                v);
          lat.(i) <- us_since t0
        end
        else begin
          let (bad, n), _ =
            Framework.verify_random_inc ~seed:pseed ~samples:tf.t_samples tf.t_inc
          in
          lat.(i) <- us_since t0;
          outcome.(i) <- (if bad = 0 && n = total then -1 else max 0 bad)
        end;
        pairs := !pairs + total);
    extra "op_group" (ints (op_groups ~group:table_group ops));
    if !Spans.on then
      Array.iteri
        (fun i (fi, pseed) ->
          let tf = fams.(fi) in
          outcome.(i) <-
            first_diff
              (f_stream tf.t_inc.Framework.scratch ~seed:pseed ~samples:tf.t_samples)
              streams.(i))
        plans;
    (* output check, outside the timed phase *)
    Array.iteri
      (fun i (fi, pseed) ->
        if outcome.(i) >= 0 then begin
          let tf = fams.(fi) in
          let pair = locate_table tf ~seed:pseed in
          fail ~op:i ~family:tf.t_id ~k:tf.t_k ~seed:pseed ~pair
            "verdict differs from f(x,y)"
        end)
      plans;
    extra_int "cache.pstats_hits" !hits;
    extra_int "cache.pstats_misses" !misses;
    (!pairs, lat)
  end

(* ---- sweep-solver: Sweep.run into a fresh store, scratch solvers ---- *)

let sweep_families =
  (* id, k, samples, shards *)
  [
    ("mds", 4, 17, 3);
    ("hampath", 2, 17, 3);
    ("steiner", 2, 0, 3);
    ("maxis-78-weighted", 4, 27, 3);
  ]

(* every fifth op re-runs an earlier plan against its store *)
let resume_every = 5

let sweep_plans ~seed n =
  schedule
    (Random.State.make [| seed; 2 |])
    ~nfam:(List.length sweep_families)
    ~repeat:(fun i -> i mod resume_every = resume_every - 1)
    ~fresh_seed:(fun i -> plan_seed ~seed i)
    n

(* scratch build and predicate, each inside its own span *)
let instrumented fam ~op ~parent =
  {
    fam with
    Framework.build =
      (fun x y ->
        Spans.with_ ~parent ~op "framework.build" (fun _ -> fam.Framework.build x y));
    predicate =
      (fun inst ->
        Spans.with_ ~parent ~op "solver.predicate" (fun _ ->
            fam.Framework.predicate inst));
  }

let run_sweep ~seed ~ops ~tmp ~setup_only ~ready =
  let fams =
    Array.of_list
      (List.map
         (fun (id, k, samples, shards) ->
           (id, k, samples, shards, (spec id).Registry.scratch k))
         sweep_families)
  in
  (* cold state: each family's solvers run once, on its corner pairs *)
  Array.iter
    (fun (_, _, _, _, fam) ->
      ignore (Sweep.run fam ~mode:(Shard.Sampled { seed; samples = 0 }) ~shards:1))
    fams;
  ready ();
  if setup_only then (0, [||])
  else begin
    let store = Filename.concat tmp "sweep-store" in
    let plans = sweep_plans ~seed ops in
    let lat = Array.make ops 0. in
    let outs = Array.make ops None in
    let pairs = ref 0 and fresh_pairs = ref 0 in
    timed_groups ~group:1 ops (fun i ->
        let fi, pseed, resume = plans.(i) in
        let _, _, samples, shards, fam = fams.(fi) in
        let mode = Shard.Sampled { seed = pseed; samples } in
        let t0 = now () in
        let o =
          Spans.with_ ~op:i (if resume then "sweep.resume" else "sweep.run")
            (fun sp ->
              let fam = if !Spans.on then instrumented fam ~op:i ~parent:sp else fam in
              Sweep.run ~store_dir:store fam ~mode ~shards)
        in
        lat.(i) <- us_since t0;
        outs.(i) <- Some o;
        pairs := !pairs + Array.length o.Sweep.verdicts;
        if not resume then fresh_pairs := !fresh_pairs + Array.length o.Sweep.verdicts);
    extra "op_group" (ints (op_groups ~group:1 ops));
    Array.iteri
      (fun i (fi, pseed, resume) ->
        let id, k, samples, _, fam = fams.(fi) in
        let o = Option.get outs.(i) in
        let want = f_stream fam ~seed:pseed ~samples in
        let failf why pair = fail ~op:i ~family:id ~k ~seed:pseed ~pair why in
        if Sweep.digest o.Sweep.verdicts <> Sweep.digest want then
          failf "verdict stream differs from f(x,y)" (first_diff want o.Sweep.verdicts)
        else if o.Sweep.failures <> 0 then
          failf (Printf.sprintf "sweep reports %d failures" o.Sweep.failures) (-1)
        else if
          resume
          && (o.Sweep.shards_resumed <> o.Sweep.shards_total
             || o.Sweep.shards_completed <> 0)
        then
          failf
            (Printf.sprintf "resume recomputed: %d of %d shards resumed"
               o.Sweep.shards_resumed o.Sweep.shards_total)
            (-1))
      plans;
    extra_int "store.fresh_pairs" !fresh_pairs;
    if !Spans.on then begin
      (* the store layer alone: read back this run's own blocks, and
         write each into a second store under the same key *)
      let copy = Filename.concat tmp "sweep-store-copy" in
      Array.iteri
        (fun i (fi, pseed, resume) ->
          if not resume then begin
            let _, _, samples, shards, fam = fams.(fi) in
            let key =
              Sweep.store_key fam
                ~mode:(Shard.Sampled { seed = pseed; samples })
                ~shards
            in
            let src = Store.open_ ~dir:store ~key in
            let dst = Store.open_ ~dir:copy ~key in
            for index = 0 to shards - 1 do
              match
                Spans.with_ ~op:i "store.read_block" (fun _ ->
                    Store.read_block src ~index)
              with
              | Store.Value block ->
                  Spans.with_ ~op:i "store.write_block" (fun _ ->
                      Store.write_block dst ~index block)
              | Store.Missing | Store.Corrupt ->
                  fail ~op:i ~family:"store" ~k:0 ~seed:pseed ~pair:(-1)
                    (Printf.sprintf "block %d of a finished plan is unreadable" index)
            done
          end)
        plans
    end;
    (!pairs, lat)
  end

(* ---- reduction-lockstep: Bound.sweep on one connected pair per op ---- *)

(* id, k, share of the ops.  Pair costs differ by family (about 0.7, 1.3,
   5 and 3.4 ms, hampath's spread widest), so the shares place p50 inside
   the maxis mode and p90 inside the bitgadget mode rather than on a gap
   between two families or in hampath's seed-dependent tail. *)
let reduction_families =
  [ ("mds", 2, 3); ("maxis", 4, 5); ("hampath", 2, 1); ("bitgadget", 8, 3) ]

let root_solver (rd : Registry.reduction) inst =
  match (rd.Registry.rd_solver, inst) with
  | Framework.Graph_solver f, _ -> f (Framework.graph_of inst)
  | Framework.Digraph_solver f, Framework.Directed dg -> f dg
  | Framework.Digraph_solver _, _ ->
      invalid_arg "directed solver on an undirected instance"

(* [n] connected pairs of [fam], drawn from seeded samples (the corner
   pairs skipped); each is returned with its seed and sample index *)
let connected_sample fam ~seed n =
  let rec draw acc round =
    if List.length acc >= n then List.filteri (fun i _ -> i < n) (List.rev acc)
    else
      let s = plan_seed ~seed round in
      let raw =
        List.filteri
          (fun i _ -> i >= 4)
          (Bound.sampled_pairs fam ~seed:s ~samples:(2 * n))
      in
      let acc =
        List.fold_left
          (fun acc (idx, pr) ->
            match Bound.connected_pairs fam [ pr ] with
            | [ _ ], _ -> (s, idx + 4, pr) :: acc
            | _ -> acc)
          acc
          (List.mapi (fun i pr -> (i, pr)) raw)
      in
      draw acc (round + 1)
  in
  Array.of_list (draw [] 0)

(* pairs per speed-timed group: a few milliseconds each, so grouped *)
let reduction_group = 5

let run_reduction ~seed ~ops ~setup_only ~ready =
  let weights = Array.of_list (List.map (fun (_, _, w) -> w) reduction_families) in
  let order =
    family_order ~weights (Random.State.make [| seed; 3 |])
      ~nfam:(Array.length weights) ops
  in
  let fams =
    Array.of_list
      (List.mapi
         (fun fi (id, k, _) ->
           let s = spec id in
           let sim =
             match Simulate.registry_spec s ~k with
             | Some sim -> sim
             | None -> failwith (id ^ ": no reduction")
           in
           let rd = (Option.get s.Registry.reduction) k in
           (* the seed's pairs for this family, connectivity checked here *)
           let per = Array.fold_left (fun n f -> if f = fi then n + 1 else n) 1 order in
           let pool =
             connected_sample sim.Simulate.sfam ~seed:(seed + (1000 * (fi + 1))) per
           in
           (id, k, sim, rd, pool))
         reduction_families)
  in
  (* cold state: every family's lockstep and oracle run once *)
  Array.iter
    (fun (_, _, sim, _, pool) ->
      let _, _, pair = pool.(0) in
      ignore (Bound.sweep sim [ pair ]))
    fams;
  ready ();
  if setup_only then (0, [||])
  else begin
    let used = Array.make (Array.length fams) 0 in
    let plan =
      Array.map
        (fun fi ->
          let j = used.(fi) in
          used.(fi) <- j + 1;
          (fi, j))
        order
    in
    let lat = Array.make ops 0. in
    let rows = Array.make ops None in
    timed_groups ~group:reduction_group ops (fun i ->
        let fi, j = plan.(i) in
        let _, _, sim, rd, pool = fams.(fi) in
        let _, _, (x, y) = pool.(j) in
        let t0 = now () in
        if !Spans.on then begin
          let row =
            Spans.with_ ~op:i "pair" (fun sp ->
                let bt =
                  Spans.with_ ~parent:sp ~op:i "simulate.lockstep" (fun _ ->
                      sim.Simulate.srun x y)
                in
                let br =
                  Spans.with_ ~parent:sp ~op:i "simulate.reference" (fun _ ->
                      sim.Simulate.sref x y)
                in
                let bmatch =
                  Spans.with_ ~parent:sp ~op:i "bound.match" (fun _ ->
                      Bound.matches bt br)
                in
                let inst = sim.Simulate.sfam.Framework.build x y in
                ignore
                  (Spans.with_ ~parent:sp ~op:i "reduction.root_solver" (fun _ ->
                       root_solver rd inst));
                { Bound.bx = x; by = y; bt; br; bmatch })
          in
          lat.(i) <- us_since t0;
          rows.(i) <- Some row
        end
        else begin
          let rs, _ = Bound.sweep sim [ (x, y) ] in
          lat.(i) <- us_since t0;
          rows.(i) <- (match rs with [ r ] -> Some r | _ -> None)
        end);
    extra "op_group" (ints (op_groups ~group:reduction_group ops));
    let rounds = ref 0 and cut_bits = ref 0 in
    Array.iteri
      (fun i (fi, j) ->
        let id, k, _, _, pool = fams.(fi) in
        let pseed, pidx, _ = pool.(j) in
        let failf why = fail ~op:i ~family:id ~k ~seed:pseed ~pair:pidx why in
        match rows.(i) with
        | None -> failf "Bound.sweep returned no row"
        | Some r ->
            rounds := !rounds + r.Bound.bt.Simulate.rounds;
            cut_bits := !cut_bits + r.Bound.bt.Simulate.cut_bits;
            if not (r.Bound.bmatch && Bound.matches r.Bound.bt r.Bound.br) then
              failf "transcript differs from the run_split/run_partitioned oracle"
            else if not r.Bound.bt.Simulate.correct then failf "wrong decision"
            else if not r.Bound.bt.Simulate.within_budget then
              failf "cut bits over the Theorem 1.1 budget")
      plan;
    extra_int "network.rounds" !rounds;
    extra_int "network.cut_bits" !cut_bits;
    (ops, lat)
  end

(* ---- serve-closed: a closed-loop client against hardness serve ---- *)

(* one timed request in [fresh_every] asks for a new plan; the others
   repeat one of the connection's earlier plans and are answered from the
   daemon's warm response cache *)
let fresh_every = 8
let connections = 2

(* requests per connection between two timings of the speed kernel *)
let serve_round = 10
let setup_id = 1_000_000

let verify_request ~id tf ~seed =
  {
    Protocol.rq_id = id;
    rq_op =
      Protocol.Verify
        {
          family = tf.t_id;
          k = tf.t_k;
          vmode = Protocol.Sampled { seed; samples = tf.t_samples };
          engine = Protocol.Auto;
        };
    rq_deadline_ms = None;
    rq_trace = None;
  }

let body_int name body = Option.bind (Jsonx.mem name body) Jsonx.as_int
let body_str name body = Option.bind (Jsonx.mem name body) Jsonx.as_str

(* the per-connection op lists, (family index, plan seed); connections
   never share a plan, so whether a request repeats is fixed by the seed *)
let serve_plans ~seed ~ops =
  Array.init connections (fun c ->
      Array.map
        (fun (fi, pseed, _) -> (fi, pseed))
        (schedule
           (Random.State.make [| seed; 4; c |])
           ~nfam:(List.length table_families)
           ~repeat:(fun j -> j mod fresh_every <> 0)
           ~fresh_seed:(fun j -> plan_seed ~seed ((j * connections) + c))
           (ops / connections)))

type served = {
  mutable lat_us : float;
  mutable micros : int;
  mutable warm : bool;
  mutable resp : Protocol.response option;
}

let run_serve ~seed ~ops ~socket ~t0_ns ~setup_only ~ready =
  let fams = resolve_tables () in
  let addr = Server.Unix_socket socket in
  let c0 = Client.connect ~retries:600 addr in
  ignore
    (Client.roundtrip c0
       [
         {
           Protocol.rq_id = 0;
           rq_op = Protocol.Ping;
           rq_deadline_ms = None;
           rq_trace = None;
         };
       ]);
  let start_s = Int64.to_float (Int64.sub (now ()) t0_ns) /. 1e9 in
  (* the cold tier: the first answer per family builds its tables *)
  let cold =
    Array.to_list
      (Array.mapi
         (fun fi tf ->
           let pseed = plan_seed ~seed:(seed + 1) fi in
           let t0 = now () in
           let rq = verify_request ~id:(setup_id + fi) tf ~seed:pseed in
           let rs = Client.roundtrip c0 [ rq ] in
           let ms = us_since t0 /. 1e3 in
           (match rs with
           | [ { Protocol.rs_outcome = Protocol.Payload _; _ } ] -> ()
           | _ ->
               fail ~op:(-1) ~family:tf.t_id ~k:tf.t_k ~seed:pseed ~pair:(-1)
                 "cold request failed");
           ms)
         fams)
  in
  let conns =
    Array.init connections (fun c -> if c = 0 then c0 else Client.connect addr)
  in
  ready ();
  if setup_only then begin
    Array.iter Client.close conns;
    (0, [||])
  end
  else begin
    let plans = serve_plans ~seed ~ops in
    let out =
      Array.map
        (Array.map (fun _ ->
             { lat_us = 0.; micros = 0; warm = false; resp = None }))
        plans
    in
    (* rounds: each connection runs its next [serve_round] requests in a
       closed loop; the kernel is timed between rounds, with no request
       in flight *)
    let run_conn r c =
      let last = min (Array.length plans.(c)) ((r + 1) * serve_round) - 1 in
      for j = r * serve_round to last do
        let fi, pseed = plans.(c).(j) in
        let id = 1 + (j * connections) + c in
        let rq = verify_request ~id fams.(fi) ~seed:pseed in
        let o = out.(c).(j) in
        Spans.with_ ~op:id "request" (fun sp ->
            let t0 = now () in
            let rs =
              Spans.with_ ~parent:sp ~op:id "client.roundtrip" (fun _ ->
                  Client.roundtrip conns.(c) [ rq ])
            in
            o.lat_us <- us_since t0;
            if !Spans.on then begin
              ignore
                (Spans.with_ ~parent:sp ~op:id "protocol.encode" (fun _ ->
                     Protocol.encode_requests [ rq ]));
              let payload = Protocol.encode_responses rs in
              ignore
                (Spans.with_ ~parent:sp ~op:id "protocol.decode" (fun _ ->
                     Protocol.decode_responses payload))
            end;
            match rs with
            | [ r ] ->
                o.micros <- r.Protocol.rs_micros;
                o.warm <- r.Protocol.rs_warm;
                o.resp <- Some r
            | _ -> ())
      done
    in
    let per = Array.length plans.(0) in
    let rounds = (per + serve_round - 1) / serve_round in
    timed_groups ~group:1 rounds (fun r ->
        Array.iter Thread.join
          (Array.init connections (fun c -> Thread.create (run_conn r) c)));
    extra "op_group"
      (ints
         (Array.concat
            (List.init connections (fun _ -> op_groups ~group:serve_round per))));
    Array.iter Client.close conns;
    (* output check: digest, failure count and pair count against f *)
    let expected = Hashtbl.create 64 in
    let pairs = ref 0 in
    Array.iteri
      (fun c ->
        Array.iteri (fun j (fi, pseed) ->
            let tf = fams.(fi) in
            let total = tf.t_samples + 4 in
            let want =
              match Hashtbl.find_opt expected (fi, pseed) with
              | Some d -> d
              | None ->
                  let d =
                    Sweep.digest
                      (f_stream tf.t_inc.Framework.scratch ~seed:pseed
                         ~samples:tf.t_samples)
                  in
                  Hashtbl.add expected (fi, pseed) d;
                  d
            in
            let failf why =
              fail ~op:(1 + (j * connections) + c) ~family:tf.t_id ~k:tf.t_k
                ~seed:pseed ~pair:(locate_table tf ~seed:pseed) why
            in
            match out.(c).(j).resp with
            | Some { Protocol.rs_outcome = Protocol.Payload body; _ } ->
                pairs := !pairs + Option.value (body_int "pairs" body) ~default:0;
                if body_str "digest" body <> Some want then
                  failf "served digest differs from f(x,y)"
                else if body_int "failures" body <> Some 0 then
                  failf "served failures <> 0"
                else if body_int "pairs" body <> Some total then
                  failf "served pair count differs"
            | Some { Protocol.rs_outcome = Protocol.Error (code, msg); _ } ->
                failf (Protocol.error_code_to_string code ^ ": " ^ msg)
            | None -> failf "no response"))
      plans;
    let all = Array.concat (Array.to_list out) in
    extra_floats "serve.micros"
      (Array.to_list (Array.map (fun o -> float_of_int o.micros) all));
    extra "serve.warm"
      (Jsonx.Arr (Array.to_list (Array.map (fun o -> Jsonx.Bool o.warm) all)));
    let frame_bytes c j (fi, pseed) =
      let rq = verify_request ~id:(1 + (j * connections) + c) fams.(fi) ~seed:pseed in
      String.length (Protocol.frame (Protocol.encode_requests [ rq ]))
    in
    extra_int "wire.request_bytes"
      (Array.fold_left ( + ) 0
         (Array.concat
            (Array.to_list (Array.mapi (fun c -> Array.mapi (frame_bytes c)) plans))));
    extra_floats "daemon.cold_ms" cold;
    extra "daemon.start_s" (Jsonx.Float start_s);
    (!pairs, Array.map (fun o -> o.lat_us) all)
  end

(* ---- main ---- *)

let () =
  let workload = ref "" and seed = ref 1 and ops = ref 0 and tmp = ref "." in
  let trace = ref false and setup_only = ref false in
  let socket = ref "" and t0_ns = ref 0L in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--ops", Arg.Set_int ops, "N timed ops");
      ("--tmp", Arg.Set_string tmp, "DIR for the store and result files");
      ("--trace", Arg.Set trace, " record spans and Ch_obs telemetry");
      ("--setup-only", Arg.Set setup_only, " exit after set-up");
      ("--socket", Arg.Set_string socket, "PATH of the daemon (serve-closed)");
      ( "--t0-ns",
        Arg.String (fun s -> t0_ns := Int64.of_string s),
        "NS monotonic time of the daemon spawn" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "worker.exe --workload NAME --seed N --ops N --tmp DIR";
  Spans.on := !trace;
  Obs.set_enabled !trace;
  (* the kernel brackets set-up too: READY carries its mean time *)
  let start_ref = Speed.kernel_ns () in
  let ready () =
    let ready_ref = Speed.kernel_ns () in
    if !trace then
      write_file
        (Filename.concat !tmp "obs_setup.json")
        (Obs.report_json (Obs.report ()));
    Printf.printf "READY %Ld\n%!" (Int64.div (Int64.add start_ref ready_ref) 2L)
  in
  let seed = !seed and ops = !ops and setup_only = !setup_only in
  let pairs, lat =
    match !workload with
    | "verify-tables" -> run_tables ~seed ~ops ~setup_only ~ready
    | "sweep-solver" -> run_sweep ~seed ~ops ~tmp:!tmp ~setup_only ~ready
    | "reduction-lockstep" -> run_reduction ~seed ~ops ~setup_only ~ready
    | "serve-closed" ->
        run_serve ~seed ~ops ~socket:!socket ~t0_ns:!t0_ns ~setup_only ~ready
    | w ->
        prerr_endline ("worker: unknown workload " ^ w);
        exit 2
  in
  if not setup_only then begin
    if !trace then Spans.write (Filename.concat !tmp "spans.tsv");
    let result =
      Jsonx.Obj
        ([
           ("ops", Jsonx.Int (Array.length lat));
           ("pairs", Jsonx.Int pairs);
           ("lat_us",
             Jsonx.Arr (Array.to_list (Array.map (fun v -> Jsonx.Float v) lat)));
           ("failed", Jsonx.Arr (List.rev !failures));
           ("rss_mb", Jsonx.Float (peak_rss_mb ()));
           ("ocaml", Jsonx.Str Sys.ocaml_version);
           ("speed_ref_ns",
             ints (Array.of_list (List.rev_map Int64.to_int !Speed.marks)));
           ("group_wall_s",
             Jsonx.Arr (List.rev_map (fun w -> Jsonx.Float w) !Speed.walls));
         ]
        @ List.rev !extras)
    in
    write_file (Filename.concat !tmp "result.json") (Jsonx.to_string result);
    if !trace then
      write_file (Filename.concat !tmp "obs.json") (Obs.report_json (Obs.report ()))
  end
