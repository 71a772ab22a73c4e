type t = {
  n : int;
  mutable m : int;
  adj : (int, int) Hashtbl.t array;
  vweight : int array;
}

let create ?(default_vweight = 1) n =
  if n < 0 then invalid_arg "Graph.create";
  {
    n;
    m = 0;
    adj = Array.init n (fun _ -> Hashtbl.create 4);
    vweight = Array.make n default_vweight;
  }

let n g = g.n

let m g = g.m

let check g v =
  if v < 0 || v >= g.n then
    invalid_arg (Printf.sprintf "Graph: vertex %d out of [0,%d)" v g.n)

let mem_edge g u v =
  check g u;
  check g v;
  Hashtbl.mem g.adj.(u) v

let add_edge ?(w = 1) g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Graph.add_edge: self loop";
  if Hashtbl.mem g.adj.(u) v then
    invalid_arg (Printf.sprintf "Graph.add_edge: duplicate edge (%d,%d)" u v);
  Hashtbl.replace g.adj.(u) v w;
  Hashtbl.replace g.adj.(v) u w;
  g.m <- g.m + 1

let remove_edge g u v =
  check g u;
  check g v;
  if not (Hashtbl.mem g.adj.(u) v) then raise Not_found;
  Hashtbl.remove g.adj.(u) v;
  Hashtbl.remove g.adj.(v) u;
  g.m <- g.m - 1

let set_edge_weight g u v w =
  check g u;
  check g v;
  if not (Hashtbl.mem g.adj.(u) v) then raise Not_found;
  Hashtbl.replace g.adj.(u) v w;
  Hashtbl.replace g.adj.(v) u w

let edge_weight g u v =
  check g u;
  check g v;
  match Hashtbl.find_opt g.adj.(u) v with
  | Some w -> w
  | None -> raise Not_found

let vweight g v =
  check g v;
  g.vweight.(v)

let set_vweight g v w =
  check g v;
  g.vweight.(v) <- w

let vweights g = Array.copy g.vweight

let neighbors g v =
  check g v;
  Hashtbl.fold (fun u _ acc -> u :: acc) g.adj.(v) [] |> List.sort compare

let neighbors_w g v =
  check g v;
  Hashtbl.fold (fun u w acc -> (u, w) :: acc) g.adj.(v) [] |> List.sort compare

let degree g v =
  check g v;
  Hashtbl.length g.adj.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := max !best (Hashtbl.length g.adj.(v))
  done;
  !best

let iter_edges f g =
  for u = 0 to g.n - 1 do
    Hashtbl.iter (fun v w -> if u < v then f u v w) g.adj.(u)
  done

(* Sorted by (u, v): rows are visited in decreasing u, each row's
   higher neighbours sorted in decreasing v and consed on, so only the
   short per-row lists are ever sorted. *)
let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    let row = Hashtbl.fold (fun v w r -> if u < v then (v, w) :: r else r) g.adj.(u) [] in
    List.iter
      (fun (v, w) -> acc := (u, v, w) :: !acc)
      (List.sort (fun (a, _) (b, _) -> Int.compare b a) row)
  done;
  !acc

let total_edge_weight g =
  let acc = ref 0 in
  iter_edges (fun _ _ w -> acc := !acc + w) g;
  !acc

let copy g =
  {
    n = g.n;
    m = g.m;
    adj = Array.map Hashtbl.copy g.adj;
    vweight = Array.copy g.vweight;
  }

let adjacency g =
  Array.init g.n (fun v ->
      let set = Bitset.create g.n in
      Hashtbl.iter (fun u _ -> Bitset.add set u) g.adj.(v);
      set)

let closed_adjacency g =
  let sets = adjacency g in
  Array.iteri (fun v set -> Bitset.add set v) sets;
  sets

let of_edges ?default_vweight n edge_list =
  let g = create ?default_vweight n in
  List.iter (fun (u, v) -> add_edge g u v) edge_list;
  g

let of_weighted_edges ?default_vweight n edge_list =
  let g = create ?default_vweight n in
  List.iter (fun (u, v, w) -> add_edge ~w g u v) edge_list;
  g

let induced g vs =
  let vs = List.sort_uniq compare vs in
  let map = Array.of_list vs in
  let inv = Hashtbl.create (Array.length map) in
  Array.iteri (fun i v -> Hashtbl.replace inv v i) map;
  let sub = create (Array.length map) in
  Array.iteri (fun i v -> sub.vweight.(i) <- g.vweight.(v)) map;
  iter_edges
    (fun u v w ->
      match (Hashtbl.find_opt inv u, Hashtbl.find_opt inv v) with
      | Some u', Some v' -> add_edge ~w sub u' v'
      | _ -> ())
    g;
  (sub, map)

let union_disjoint a b =
  let g = create (a.n + b.n) in
  for v = 0 to a.n - 1 do
    g.vweight.(v) <- a.vweight.(v)
  done;
  for v = 0 to b.n - 1 do
    g.vweight.(a.n + v) <- b.vweight.(v)
  done;
  iter_edges (fun u v w -> add_edge ~w g u v) a;
  iter_edges (fun u v w -> add_edge ~w g (a.n + u) (a.n + v)) b;
  g

(* Edge-set equality without building or sorting edge lists: with equal
   vertex counts, row [v] of [b] must have as many entries as row [v] of
   [a], each present in [a]'s row with the same weight.  Rows hold no
   duplicate keys, so containment plus equal size is equality.  [a]'s
   row is stamped into two scratch arrays (tagged with [v], so no reset
   between rows) rather than probed through the hash function. *)
let equal_structure a b =
  a.n = b.n && a.m = b.m && a.vweight = b.vweight
  &&
  let mark = Array.make a.n (-1) and weight = Array.make a.n 0 in
  let same_row v =
    let ra = a.adj.(v) and rb = b.adj.(v) in
    Hashtbl.length ra = Hashtbl.length rb
    && begin
         Hashtbl.iter
           (fun u w ->
             mark.(u) <- v;
             weight.(u) <- w)
           ra;
         try
           Hashtbl.iter
             (fun u w -> if mark.(u) <> v || weight.(u) <> w then raise_notrace Exit)
             rb;
           true
         with Exit -> false
       end
  in
  let rec rows v = v = a.n || (same_row v && rows (v + 1)) in
  rows 0

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.n g.m;
  iter_edges (fun u v w -> Format.fprintf ppf "%d -- %d (w=%d)@," u v w) g;
  Format.fprintf ppf "@]"

let to_dot ?(name = "g") ?(highlight = []) g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  for v = 0 to g.n - 1 do
    let attrs = ref [] in
    if g.vweight.(v) <> 1 then
      attrs := Printf.sprintf "label=\"%d (w=%d)\"" v g.vweight.(v) :: !attrs;
    if List.mem v highlight then
      attrs := "style=filled" :: "fillcolor=gray" :: !attrs;
    if !attrs <> [] then
      Buffer.add_string buf
        (Printf.sprintf "  %d [%s];\n" v (String.concat "," !attrs))
  done;
  iter_edges
    (fun u v w ->
      if w = 1 then Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v)
      else Buffer.add_string buf (Printf.sprintf "  %d -- %d [label=%d];\n" u v w))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
