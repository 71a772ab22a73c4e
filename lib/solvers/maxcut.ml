open Ch_graph
module Obs = Ch_obs.Obs

let c_flips = Obs.counter "solver.maxcut.flips"
let h_flips = Obs.histogram "solver.maxcut.flips_per_call"
let sp_maxcut = Obs.span "solver.maxcut"

let cut_weight g side =
  let acc = ref 0 in
  Graph.iter_edges (fun u v w -> if side.(u) <> side.(v) then acc := !acc + w) g;
  !acc

let flip_delta g side v =
  (* change in cut weight when v switches sides *)
  List.fold_left
    (fun acc (u, w) -> if side.(u) = side.(v) then acc + w else acc - w)
    0 (Graph.neighbors_w g v)

let max_cut g =
  Obs.with_span sp_maxcut (fun () ->
      let n = Graph.n g in
      if n > 30 then invalid_arg "Maxcut.max_cut: n > 30";
      let adjacency = Array.init n (fun v -> Array.of_list (Graph.neighbors_w g v)) in
      let side = Array.make n false in
      let best_w = ref 0 and best = Array.make n false in
      if n > 1 then begin
        let weight = ref 0 in
        (* vertex 0 stays on side [false]: cuts come in symmetric pairs *)
        let steps = (1 lsl (n - 1)) - 1 in
        Obs.incr c_flips steps;
        Obs.observe h_flips steps;
        for t = 1 to steps do
          let v = 1 + Bitset.trailing_zeros t in
          let delta = ref 0 in
          Array.iter
            (fun (u, w) -> if side.(u) = side.(v) then delta := !delta + w else delta := !delta - w)
            adjacency.(v);
          weight := !weight + !delta;
          side.(v) <- not side.(v);
          if !weight > !best_w then begin
            best_w := !weight;
            Array.blit side 0 best 0 n
          end
        done
      end;
      (!best_w, best))

(* Decision variant: the same Gray-code walk as [max_cut], stopped at the
   first assignment reaching [bound] — typically after a tiny prefix of
   the 2^(n-1) walk when the answer is yes. *)
let exists_of_weight g bound =
  Obs.with_span sp_maxcut (fun () ->
      let n = Graph.n g in
      if n > 30 then invalid_arg "Maxcut.exists_of_weight: n > 30";
      if bound <= 0 then true (* the empty cut weighs 0 *)
      else if n <= 1 then false
      else begin
        let adjacency = Array.init n (fun v -> Array.of_list (Graph.neighbors_w g v)) in
        let side = Array.make n false in
        let weight = ref 0 in
        let steps = (1 lsl (n - 1)) - 1 in
        let taken = ref 0 and found = ref false in
        let t = ref 1 in
        while (not !found) && !t <= steps do
          let v = 1 + Bitset.trailing_zeros !t in
          let delta = ref 0 in
          Array.iter
            (fun (u, w) -> if side.(u) = side.(v) then delta := !delta + w else delta := !delta - w)
            adjacency.(v);
          weight := !weight + !delta;
          side.(v) <- not side.(v);
          incr taken;
          if !weight >= bound then found := true;
          incr t
        done;
        if Obs.enabled () then begin
          Obs.incr c_flips !taken;
          Obs.observe h_flips !taken
        end;
        !found
      end)

(* One full 2^n Gray-code walk with the volatile vertices assigned to the
   high bit positions: each of their 2^s joint assignments is then visited
   as one contiguous block of the walk, so a single pass records the best
   cut weight attainable over the remaining vertices for every volatile
   assignment. *)
let conditioned_max g ~volatile =
  Obs.with_span sp_maxcut (fun () ->
  let n = Graph.n g in
  if n > 30 then invalid_arg "Maxcut.conditioned_max: n > 30";
  if n > 0 then begin
    Obs.incr c_flips ((1 lsl n) - 1);
    Obs.observe h_flips ((1 lsl n) - 1)
  end;
  let vol = Array.of_list volatile in
  let s = Array.length vol in
  let pos = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= n then invalid_arg "Maxcut.conditioned_max: bad vertex";
      if pos.(v) >= 0 then invalid_arg "Maxcut.conditioned_max: duplicate vertex";
      pos.(v) <- n - s + i)
    vol;
  let next = ref 0 in
  for v = 0 to n - 1 do
    if pos.(v) < 0 then begin
      pos.(v) <- !next;
      incr next
    end
  done;
  let vertex_at = Array.make n 0 in
  Array.iteri (fun v p -> vertex_at.(p) <- v) pos;
  let adjacency = Array.init n (fun v -> Array.of_list (Graph.neighbors_w g v)) in
  let side = Array.make n false in
  let m = Array.make (1 lsl s) 0 in
  let r = n - s in
  let weight = ref 0 and best = ref 0 and va = ref 0 in
  if n > 0 then
    for t = 1 to (1 lsl n) - 1 do
      let p = Bitset.trailing_zeros t in
      let v = vertex_at.(p) in
      let delta = ref 0 in
      Array.iter
        (fun (u, w) -> if side.(u) = side.(v) then delta := !delta + w else delta := !delta - w)
        adjacency.(v);
      weight := !weight + !delta;
      side.(v) <- not side.(v);
      if p < r then begin
        if !weight > !best then best := !weight
      end
      else begin
        (* a volatile flip ends the current block: record it, start anew *)
        m.(!va) <- !best;
        va := !va lxor (1 lsl (p - r));
        best := !weight
      end
    done;
  m.(!va) <- !best;
  m)

let local_search ~seed g =
  let n = Graph.n g in
  let rng = Random.State.make [| seed |] in
  let side = Array.init n (fun _ -> Random.State.bool rng) in
  let improved = ref true in
  while !improved do
    improved := false;
    for v = 0 to n - 1 do
      if flip_delta g side v > 0 then begin
        side.(v) <- not side.(v);
        improved := true
      end
    done
  done;
  (cut_weight g side, side)

let random_cut ~seed g =
  let rng = Random.State.make [| seed |] in
  let side = Array.init (Graph.n g) (fun _ -> Random.State.bool rng) in
  (cut_weight g side, side)
