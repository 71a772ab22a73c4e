open Ch_graph
module Obs = Ch_obs.Obs

let c_nodes = Obs.counter "solver.hamilton.nodes"
let c_pruned = Obs.counter "solver.hamilton.pruned"
let sp_ham = Obs.span "solver.hamilton"

type goal = Any_end | End_at of int | Close_to of int

type ctx = { n : int; succ : Bitset.t array; pred : Bitset.t array }

exception Found

(* Feasibility pruning from [current] with [unvisited], cheapest cut
   first:
   - at most one unvisited vertex may be out-dead (no usable out-arc);
     for [Close_to s] any out-dead vertex must point back to [s];
   - every unvisited vertex needs a usable in-arc (from another
     unvisited vertex or from [current]) — "in-dead" vertices can never
     be entered;
   - at most one unvisited vertex may have [current] as its {e only}
     usable in-source: only one of them can be the next step, and after
     the step the others are in-dead;
   - every unvisited vertex must stay reachable from [current] (for
     [End_at e], without passing through [e]) — checked last, it is the
     only cut that needs a BFS.
   The degree cuts never subtract self-loops, so they only ever
   under-count deadness: conservative, hence sound. *)
let feasible ctx arena unvisited current goal =
  let blocked = match goal with End_at e -> e | Any_end | Close_to _ -> -1 in
  let dead = ref 0 and only_cur = ref 0 and ok = ref true in
  Bitset.iter
    (fun u ->
      let usable = Bitset.inter_cardinal ctx.succ.(u) unvisited in
      let usable =
        match goal with
        | End_at e when u <> e && Bitset.mem ctx.succ.(u) e ->
            usable - 1 (* an arc into e forces u to be second-to-last *)
        | _ -> usable
      in
      (if usable = 0 then
         match goal with
         | Any_end -> incr dead
         | End_at e -> if u <> e then incr dead
         | Close_to s ->
             incr dead;
             if not (Bitset.mem ctx.succ.(u) s) then ok := false);
      if Bitset.inter_cardinal ctx.pred.(u) unvisited = 0 then
        if Bitset.mem ctx.pred.(u) current then incr only_cur else ok := false)
    unvisited;
  !ok && !dead <= 1 && !only_cur <= 1
  &&
  let seen = Arena.bits arena in
  let stack = Arena.ints arena in
  let sp = ref 0 in
  stack.(0) <- current;
  incr sp;
  while !sp > 0 do
    decr sp;
    let v = stack.(!sp) in
    Bitset.iter
      (fun u ->
        if Bitset.mem unvisited u && not (Bitset.mem seen u) then begin
          Bitset.add seen u;
          if u <> blocked then begin
            stack.(!sp) <- u;
            incr sp
          end
        end)
      ctx.succ.(v)
  done;
  let reachable = Bitset.subset unvisited seen in
  Arena.put_bits arena seen;
  Arena.put_ints arena stack;
  reachable

let search ctx start goal =
  Obs.with_span sp_ham (fun () ->
  let order = Array.make ctx.n (-1) in
  let unvisited = Bitset.full ctx.n in
  Bitset.remove unvisited start;
  order.(0) <- start;
  let arena = Arena.create ctx.n in
  let result = ref None in
  let rec dfs current count =
    Obs.bump c_nodes;
    if count = ctx.n then begin
      let complete =
        match goal with
        | Any_end -> true
        | End_at e -> current = e
        | Close_to s -> Bitset.mem ctx.succ.(current) s
      in
      if complete then begin
        result := Some (Array.to_list order);
        raise Found
      end
    end
    else if feasible ctx arena unvisited current goal then begin
      (* Candidates into arena arrays, then a stable insertion sort on
         ascending branching degree — the same order the old
         elements/filter/stable-sort pipeline produced, without the
         intermediate lists. *)
      let cand = Arena.ints arena and key = Arena.ints arena in
      let m = ref 0 in
      let nexts = Arena.bits arena in
      Bitset.copy_into nexts ctx.succ.(current);
      Bitset.inter_into nexts unvisited;
      Bitset.iter
        (fun v ->
          let keep =
            match goal with
            | End_at e -> v <> e || count + 1 = ctx.n
            | Any_end | Close_to _ -> true
          in
          if keep then begin
            cand.(!m) <- v;
            key.(!m) <- Bitset.inter_cardinal ctx.succ.(v) unvisited;
            incr m
          end)
        nexts;
      Arena.put_bits arena nexts;
      let m = !m in
      for i = 1 to m - 1 do
        let kv = key.(i) and cv = cand.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && key.(!j) > kv do
          key.(!j + 1) <- key.(!j);
          cand.(!j + 1) <- cand.(!j);
          decr j
        done;
        key.(!j + 1) <- kv;
        cand.(!j + 1) <- cv
      done;
      for i = 0 to m - 1 do
        let v = cand.(i) in
        Bitset.remove unvisited v;
        order.(count) <- v;
        dfs v (count + 1);
        order.(count) <- -1;
        Bitset.add unvisited v
      done;
      Arena.put_ints arena cand;
      Arena.put_ints arena key
    end
    else Obs.bump c_pruned
  in
  (try dfs start 1 with Found -> ());
  !result)

let make_ctx dg =
  { n = Digraph.n dg; succ = Digraph.succ_bitsets dg; pred = Digraph.pred_bitsets dg }

let directed_path_between dg ~src ~dst =
  let ctx = make_ctx dg in
  if ctx.n = 0 then None
  else if ctx.n = 1 then if src = dst then Some [ src ] else None
  else search ctx src (End_at dst)

let starts_to_try ctx =
  let sourceless =
    List.filter
      (fun v -> Bitset.is_empty ctx.pred.(v))
      (List.init ctx.n Fun.id)
  in
  match sourceless with
  | [] -> Some (List.init ctx.n Fun.id)
  | [ s ] -> Some [ s ]
  | _ -> None (* two vertices with no in-arc: no Hamiltonian path *)

let directed_path dg =
  let ctx = make_ctx dg in
  if ctx.n = 0 then None
  else if ctx.n = 1 then Some [ 0 ]
  else
    match starts_to_try ctx with
    | None -> None
    | Some starts ->
        List.fold_left
          (fun acc s ->
            match acc with Some _ -> acc | None -> search ctx s Any_end)
          None starts

let directed_cycle dg =
  let ctx = make_ctx dg in
  if ctx.n < 2 then None else search ctx 0 (Close_to 0)

let symmetric g =
  let dg = Digraph.create (Graph.n g) in
  Graph.iter_edges
    (fun u v _ ->
      Digraph.add_arc dg u v;
      Digraph.add_arc dg v u)
    g;
  dg

let undirected_path g = directed_path (symmetric g)

let undirected_cycle g =
  if Graph.n g < 3 then None else directed_cycle (symmetric g)

let covers_all n path =
  List.length path = n && List.sort_uniq compare path = List.init n Fun.id

let is_directed_path dg path =
  covers_all (Digraph.n dg) path
  &&
  let rec ok = function
    | a :: (b :: _ as rest) -> Digraph.mem_arc dg a b && ok rest
    | _ -> true
  in
  ok path

let is_directed_cycle dg path =
  match path with
  | [] -> false
  | first :: _ ->
      is_directed_path dg path
      && Digraph.mem_arc dg (List.nth path (List.length path - 1)) first

let is_undirected_path g path =
  covers_all (Graph.n g) path
  &&
  let rec ok = function
    | a :: (b :: _ as rest) -> Graph.mem_edge g a b && ok rest
    | _ -> true
  in
  ok path

let is_undirected_cycle g path =
  match path with
  | [] -> false
  | first :: _ ->
      is_undirected_path g path
      && Graph.mem_edge g (List.nth path (List.length path - 1)) first
