open Ch_graph
module Obs = Ch_obs.Obs

type stats = { cache_hits : int; cache_misses : int }

let sp_lookup = Obs.span "cache_lookup"
let sp_build = Obs.span "cache_build"

(* One tally per prepared instance, one [kind] per cache family.  The
   local cell backs the public [stats] reader with the historical
   semantics (prepare memo-hit → hits=1/misses=0, miss → 0/1; every
   query bumps hits), while the kind's Obs pair counts repo-wide,
   schedule-independent totals: [cache.<kind>.queries] is bumped once
   per query (a per-pair event) and [cache.<kind>.builds] once per
   table construction (a per-unique-core event now that builds are
   serialized under the memo lock) — unlike summed per-instance
   hit/miss cells, neither depends on how the pair space was chunked
   across domains. *)
module Tally = struct
  type kind = { kname : string; kqueries : Obs.counter; kbuilds : Obs.counter }

  let kind kname =
    {
      kname;
      kqueries = Obs.counter ("cache." ^ kname ^ ".queries");
      kbuilds = Obs.counter ("cache." ^ kname ^ ".builds");
    }

  type t = { mutable chits : int; mutable cmisses : int; tkind : kind }

  let make k ~was_hit =
    {
      chits = (if was_hit then 1 else 0);
      cmisses = (if was_hit then 0 else 1);
      tkind = k;
    }

  let query t =
    t.chits <- t.chits + 1;
    Obs.bump t.tkind.kqueries

  let built k = Obs.bump k.kbuilds
  let stats t = { cache_hits = t.chits; cache_misses = t.cmisses }
end

(* ------------------------------------------------------------------ *)
(* Key-generic memo                                                   *)
(* ------------------------------------------------------------------ *)

(* Core tables are immutable once published (the MIS tables' lazily
   filled values aside), so concurrent verification workers (one
   prepared instance each) can share one computation.  Every memo has the
   same shape: hash buckets of (frozen key, tables) pairs, probed with a
   full [equal] re-check so a hash collision can never serve wrong
   tables.  [freeze] snapshots the key at insertion, so later in-place
   patching of the caller's graph cannot corrupt it; [order] ranks the
   keys of one bucket, so [entries] is a deterministic function of the
   memo contents whatever the build order was. *)
module Memo = struct
  type ('k, 'a) t = {
    lock : Mutex.t;
    tbl : (int, ('k * 'a) list) Hashtbl.t;
    hash : 'k -> int;
    equal : 'k -> 'k -> bool;
    order : 'k -> 'k -> int;
    freeze : 'k -> 'k;
  }

  let create ~hash ~equal ~order ~freeze =
    { lock = Mutex.create (); tbl = Hashtbl.create 16; hash; equal; order; freeze }

  (* [Fun.protect] keeps the lock exception-safe (builders raise
     [Invalid_argument] on oversized cores). *)
  let locked m f =
    Mutex.lock m.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock m.lock) f

  let bucket m h = Option.value ~default:[] (Hashtbl.find_opt m.tbl h)
  let probe m h key = List.find_opt (fun (k, _) -> m.equal k key) (bucket m h)
  let add m h key tables = Hashtbl.replace m.tbl h ((key, tables) :: bucket m h)

  (* [(tables, true)] on a memo hit, [(tables, false)] when this call
     computed them.  The build runs under the memo lock, so each unique
     key is built exactly once: racing domains would otherwise duplicate
     the (expensive) build, and the duplicated solver work would make the
     telemetry counters schedule-dependent.  Contention is negligible —
     builds are per-core, queries never take this path.  [build] gets
     the frozen key, which the entry keeps. *)
  let find_or_build m key ~build =
    let h = m.hash key in
    Obs.with_span sp_lookup (fun () ->
        locked m (fun () ->
            match probe m h key with
            | Some (_, tables) -> (tables, true)
            | None ->
                let key = m.freeze key in
                let tables = Obs.with_span sp_build (fun () -> build key) in
                add m h key tables;
                (tables, false)))

  let clear m = locked m (fun () -> Hashtbl.reset m.tbl)

  (* Sorted by bucket hash, then by [order] within a bucket. *)
  let entries m =
    locked m (fun () ->
        Hashtbl.fold (fun h es acc -> List.map (fun e -> (h, e)) es @ acc) m.tbl [])
    |> List.sort (fun (h, (k, _)) (h', (k', _)) ->
           if h <> h' then compare (h : int) h' else m.order k k')
    |> List.map snd

  (* Re-probes under the lock, so restoring never shadows a table the
     process already built (nor duplicates one restored twice). *)
  let restore m entries =
    locked m (fun () ->
        List.fold_left
          (fun added (key, tables) ->
            let h = m.hash key in
            match probe m h key with
            | Some _ -> added
            | None ->
                add m h key tables;
                added + 1)
          0 entries)
end

(* Graph-keyed memos: a frozen copy of the core plus the query
   parameters rendered as an aux string.  Keys of one bucket are
   structurally equal up to a (vanishingly rare) hash collision, so
   ordering them by aux makes the snapshot order total in practice. *)
type gkey = Graph.t * string

let graph_memo () : (gkey, 'a) Memo.t =
  Memo.create
    ~hash:(fun (g, _) -> Props.structural_hash g)
    ~equal:(fun (g, aux) (g', aux') -> aux = aux' && Graph.equal_structure g g')
    ~order:(fun (_, aux) (_, aux') -> compare aux aux')
    ~freeze:(fun (g, aux) -> (Graph.copy g, aux))

(* ------------------------------------------------------------------ *)
(* Steiner: core connectivity tables for min_extra_nodes              *)
(* ------------------------------------------------------------------ *)

(* Steiner.min_extra_nodes enumerates candidate connector sets in size
   order and only asks "is terminals ∪ extra connected?".  Connectivity
   over the fixed core edges is precomputed here for every candidate set:
   one byte per vertex per subset holds its core component id (0xff =
   not selected).  A query then replays only the input-derived edges over
   those component ids — a handful of tiny union-find operations per
   subset instead of a fresh union-find over the whole edge list. *)

type steiner_tables = {
  sn : int;  (* vertices *)
  scap : int;
  ssize_start : int array;  (* subset index range per size: [s .. s+1) *)
  scomp : Bytes.t;  (* nsubsets × n component ids *)
  sclasses : int array;  (* core components among selected, per subset *)
}

type steiner = {
  st : steiner_tables;
  (* stamped scratch union-find over component ids, reused across queries *)
  sparent : int array;
  sstamp : int array;
  mutable sround : int;
  (* the query's extra edges as endpoint arrays, grown on demand *)
  mutable seu : int array;
  mutable sev : int array;
  sc : Tally.t;
}

let steiner_memo : (gkey, steiner_tables) Memo.t = graph_memo ()
let steiner_kind = Tally.kind "steiner"
let c_steiner_scanned = Obs.counter "cache.steiner.subsets_scanned"
let h_steiner_scanned = Obs.histogram "cache.steiner.subsets_scanned_per_query"

let count_subsets ~no ~cap =
  let total = ref 0 and c = ref 1 in
  (try
     for s = 0 to cap do
       total := !total + !c;
       if !total > 4_000_000 then raise Exit;
       c := !c * (no - s) / (s + 1)
     done
   with Exit -> invalid_arg "Cache.steiner_prepare: subset space too large");
  !total

let build_steiner_tables g ~terminals ~cap =
  let n = Graph.n g in
  if n = 0 || n > 250 then invalid_arg "Cache.steiner_prepare: need 1 <= n <= 250";
  let terminals = List.sort_uniq compare terminals in
  if terminals = [] then invalid_arg "Cache.steiner_prepare: no terminals";
  List.iter
    (fun t -> if t < 0 || t >= n then invalid_arg "Cache.steiner_prepare: bad terminal")
    terminals;
  let is_terminal = Array.make n false in
  List.iter (fun t -> is_terminal.(t) <- true) terminals;
  let others =
    Array.of_list (List.filter (fun v -> not is_terminal.(v)) (List.init n Fun.id))
  in
  let no = Array.length others in
  if cap < 0 then invalid_arg "Cache.steiner_prepare: negative cap";
  let cap = min cap no in
  let nsubsets = count_subsets ~no ~cap in
  if nsubsets * n > 64_000_000 then
    invalid_arg "Cache.steiner_prepare: tables too large";
  let edges = Array.of_list (List.map (fun (u, v, _) -> (u, v)) (Graph.edges g)) in
  let comp = Bytes.make (nsubsets * n) '\255' in
  let classes = Array.make nsubsets 0 in
  let size_start = Array.make (cap + 2) 0 in
  let sel = Array.make n false in
  List.iter (fun t -> sel.(t) <- true) terminals;
  let root_id = Array.make n (-1) and root_stamp = Array.make n (-1) in
  let idx = ref 0 in
  let record () =
    let uf = Union_find.create n in
    Array.iter
      (fun (u, v) -> if sel.(u) && sel.(v) then ignore (Union_find.union uf u v))
      edges;
    let base = !idx * n in
    let next = ref 0 in
    for v = 0 to n - 1 do
      if sel.(v) then begin
        let r = Union_find.find uf v in
        if root_stamp.(r) <> !idx then begin
          root_stamp.(r) <- !idx;
          root_id.(r) <- !next;
          incr next
        end;
        Bytes.set comp (base + v) (Char.chr root_id.(r))
      end
    done;
    classes.(!idx) <- !next;
    incr idx
  in
  for s = 0 to cap do
    size_start.(s) <- !idx;
    (* lexicographic combinations of size s over the non-terminals; only
       the grouping by size matters for min_extra_nodes equivalence *)
    let rec go depth start =
      if depth = s then record ()
      else
        for i = start to no - (s - depth) do
          sel.(others.(i)) <- true;
          go (depth + 1) (i + 1);
          sel.(others.(i)) <- false
        done
    in
    go 0 0
  done;
  size_start.(cap + 1) <- !idx;
  { sn = n; scap = cap; ssize_start = size_start; scomp = comp; sclasses = classes }

let steiner_prepare g ~terminals ~cap =
  let aux =
    String.concat ","
      (List.map string_of_int (List.sort_uniq compare terminals))
    ^ ";" ^ string_of_int cap
  in
  let tables, was_hit =
    Memo.find_or_build steiner_memo (g, aux) ~build:(fun _ ->
        Tally.built steiner_kind;
        build_steiner_tables g ~terminals ~cap)
  in
  {
    st = tables;
    sparent = Array.make 256 0;
    sstamp = Array.make 256 (-1);
    sround = 0;
    seu = [||];
    sev = [||];
    sc = Tally.make steiner_kind ~was_hit;
  }

(* Path-compressing find over the stamped scratch union-find; [uf_touch]
   resets a component id the first time the current round sees it. *)
let rec uf_find parent x =
  let p = parent.(x) in
  if p = x then x
  else begin
    let r = uf_find parent p in
    parent.(x) <- r;
    r
  end

let uf_touch c x =
  if c.sstamp.(x) <> c.sround then begin
    c.sstamp.(x) <- c.sround;
    c.sparent.(x) <- x
  end

let steiner_min_extra c ~extra =
  Tally.query c.sc;
  let t = c.st in
  let n = t.sn in
  let ne = List.length extra in
  if Array.length c.seu < ne then begin
    c.seu <- Array.make ne 0;
    c.sev <- Array.make ne 0
  end;
  let eu = c.seu and ev = c.sev in
  List.iteri
    (fun e (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Cache.steiner_min_extra: edge out of range";
      eu.(e) <- u;
      ev.(e) <- v)
    extra;
  let parent = c.sparent and comp = t.scomp in
  let exception Hit of int in
  let scanned = ref 0 in
  let result =
    try
      for s = 0 to t.scap do
        for i = t.ssize_start.(s) to t.ssize_start.(s + 1) - 1 do
          incr scanned;
          let classes = ref t.sclasses.(i) in
          if !classes = 1 then raise (Hit s);
          c.sround <- c.sround + 1;
          let base = i * n in
          for e = 0 to ne - 1 do
            let cu = Char.code (Bytes.get comp (base + eu.(e)))
            and cv = Char.code (Bytes.get comp (base + ev.(e))) in
            if cu <> 0xff && cv <> 0xff then begin
              uf_touch c cu;
              uf_touch c cv;
              let ru = uf_find parent cu and rv = uf_find parent cv in
              if ru <> rv then begin
                parent.(ru) <- rv;
                decr classes;
                if !classes = 1 then raise (Hit s)
              end
            end
          done
        done
      done;
      None
    with Hit s -> Some s
  in
  Obs.incr c_steiner_scanned !scanned;
  Obs.observe h_steiner_scanned !scanned;
  result

let steiner_stats c = Tally.stats c.sc

(* ------------------------------------------------------------------ *)
(* Max cut: conditioned table over the volatile vertices              *)
(* ------------------------------------------------------------------ *)

type maxcut_tables = {
  mn : int;
  mvol_index : int array;  (* vertex -> index into volatile, or -1 *)
  mnvol : int;
  mtable : int array;  (* Maxcut.conditioned_max of the core *)
}

(* Per-instance query scratch: the extra edges as an adjacency over
   volatile indices in flat arrays (row [i] is [mstart.(i) ..
   mstart.(i+1) - 1]), grown on demand. *)
type maxcut = {
  mt : maxcut_tables;
  mc : Tally.t;
  mstart : int array;
  mpos : int array;
  mutable mnbr : int array;
  mutable mwt : int array;
}

let maxcut_memo : (gkey, maxcut_tables) Memo.t = graph_memo ()
let maxcut_kind = Tally.kind "maxcut"

let build_maxcut_tables g ~volatile =
  let n = Graph.n g in
  let vol_index = Array.make n (-1) in
  List.iteri
    (fun i v ->
      if v < 0 || v >= n then invalid_arg "Cache.maxcut_prepare: bad vertex";
      vol_index.(v) <- i)
    volatile;
  {
    mn = n;
    mvol_index = vol_index;
    mnvol = List.length volatile;
    mtable = Maxcut.conditioned_max g ~volatile;
  }

let maxcut_prepare g ~volatile =
  let aux = String.concat "," (List.map string_of_int volatile) in
  let tables, was_hit =
    Memo.find_or_build maxcut_memo (g, aux) ~build:(fun _ ->
        Tally.built maxcut_kind;
        build_maxcut_tables g ~volatile)
  in
  let s = tables.mnvol in
  {
    mt = tables;
    mc = Tally.make maxcut_kind ~was_hit;
    mstart = Array.make (s + 1) 0;
    mpos = Array.make (max s 1) 0;
    mnbr = [||];
    mwt = [||];
  }

let maxcut_max ?stop_at c ~extra =
  Tally.query c.mc;
  let t = c.mt in
  let s = t.mnvol in
  let start = c.mstart in
  Array.fill start 0 (s + 1) 0;
  let ne = ref 0 in
  List.iter
    (fun (u, v, _) ->
      if u < 0 || u >= t.mn || v < 0 || v >= t.mn then
        invalid_arg "Cache.maxcut_max: edge out of range";
      let iu = t.mvol_index.(u) and iv = t.mvol_index.(v) in
      if iu < 0 || iv < 0 then
        invalid_arg "Cache.maxcut_max: extra edge endpoint not volatile";
      start.(iu + 1) <- start.(iu + 1) + 1;
      start.(iv + 1) <- start.(iv + 1) + 1;
      ne := !ne + 2)
    extra;
  if Array.length c.mnbr < !ne then begin
    c.mnbr <- Array.make !ne 0;
    c.mwt <- Array.make !ne 0
  end;
  for i = 1 to s do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let pos = c.mpos and nbr = c.mnbr and wt = c.mwt in
  Array.blit start 0 pos 0 s;
  List.iter
    (fun (u, v, w) ->
      let iu = t.mvol_index.(u) and iv = t.mvol_index.(v) in
      nbr.(pos.(iu)) <- iv;
      wt.(pos.(iu)) <- w;
      pos.(iu) <- pos.(iu) + 1;
      nbr.(pos.(iv)) <- iu;
      wt.(pos.(iv)) <- w;
      pos.(iv) <- pos.(iv) + 1)
    extra;
  (* Gray walk over the 2^s volatile assignments: the extra-edge cut
     weight is maintained incrementally, the core contributes m.(va),
     and bit j of [va] is volatile vertex j's side.  With [stop_at] the
     walk ends as soon as the bound is witnessed: the result is then
     exact below the bound, and any value ≥ the bound certifies the true
     maximum is too. *)
  let stop = match stop_at with Some b -> b | None -> max_int in
  let table = t.mtable in
  let best = ref table.(0) and weight = ref 0 and va = ref 0 in
  (try
     if !best >= stop then raise Exit;
     for tt = 1 to (1 lsl s) - 1 do
       (* the flipped index is ctz tt: 2 probes on average over the walk *)
       let i = ref 0 in
       while tt land (1 lsl !i) = 0 do
         incr i
       done;
       let i = !i in
       let side_i = (!va lsr i) land 1 in
       for e = start.(i) to start.(i + 1) - 1 do
         if (!va lsr nbr.(e)) land 1 = side_i then weight := !weight + wt.(e)
         else weight := !weight - wt.(e)
       done;
       va := !va lxor (1 lsl i);
       if !weight + table.(!va) > !best then best := !weight + table.(!va);
       if !best >= stop then raise Exit
     done
   with Exit -> ());
  !best

let maxcut_stats c = Tally.stats c.mc

(* ------------------------------------------------------------------ *)
(* Max independent set: conditioned table over the volatile vertices  *)
(* ------------------------------------------------------------------ *)

(* α(core + extra), where the extra edges live inside [volatile]:
   any independent set splits as A ⊎ S with A = S∩volatile, so

     α(G) = max over A ⊆ volatile independent in G of
            |A| + α(G[V ∖ volatile ∖ N(A)])

   and because extra edges never touch V ∖ volatile, both the residual
   graph and N(A)∖volatile are those of the bare core — so each subset's
   value depends on the core alone.  The build no longer evaluates every
   subset eagerly (one exact MIS solve per subset, the dominant cost at
   larger scales): it only enumerates the masks and stores the
   admissible upper bound ub(A) = base(A) + value(∅), where value(∅) is
   the residual optimum with nothing removed — sound because the
   residual graph of any A is an induced subgraph of the ∅ residual and
   α/MWIS is monotone under induced subgraphs with non-negative
   weights.  Entries are sorted by decreasing ub; a query scans in that
   order, lazily evaluating compatible entries into a shared memo, and
   stops as soon as the next ub cannot beat the best exact value seen —
   so only the subsets some query actually needs are ever solved.  The
   evaluated set is query-determined, not schedule-determined: racing
   domains serialize on the evaluation lock and the second one finds the
   memo filled, keeping the solver counters deterministic.

   The weighted case (MWIS, the Theorem 4.3 gadget) is the same table
   with w(A) + MWIS(residual) under the core's vertex weights — valid
   while inputs only add volatile-volatile edges and never touch the
   weights.  Tables are plain data (no lock, no closure), so they
   marshal as they are; each prepared instance derives its evaluator
   from the frozen core on its first lazy solve. *)

type mis_tables = {
  mi_core : Graph.t;  (* the frozen core (shared with the memo key) *)
  mi_weighted : bool;
  mi_vol : int array;  (* volatile vertex per mask bit *)
  mi_vol_index : int array;  (* vertex -> index into volatile, or -1 *)
  mi_masks : int array;  (* sorted by (ub desc, mask asc) *)
  mi_ubs : int array;
  mi_vals : int array;  (* lazy memo; -1 = not evaluated yet *)
}

(* [miconf] is per-instance query scratch: volatile index -> mask of the
   indices an extra edge joins it to. *)
type mis = {
  mi : mis_tables;
  mic : Tally.t;
  mutable mieval : (int -> int) option;
  miconf : int array;
}

let mis_memo : (gkey, mis_tables) Memo.t = graph_memo ()
let mis_kind = Tally.kind "mis"
let mwis_kind = Tally.kind "mwis"
let c_mis_evals = Obs.counter "cache.mis.entries_evaluated"
let mis_eval_lock = Mutex.create ()

(* The two halves of a subset's exact value over the frozen core:
   [base_of] (the subset's own size/weight) and [residual_of] (the
   optimum outside volatile ∖ N(A)). *)
let mis_value_parts ~weighted g ~vol ~vol_index =
  let n = Graph.n g and s = Array.length vol in
  let adj = Graph.adjacency g in
  let nonvol = List.filter (fun v -> vol_index.(v) < 0) (List.init n Fun.id) in
  let vw = Graph.vweights g in
  let base_of mask =
    if weighted then begin
      let wa = ref 0 in
      for i = 0 to s - 1 do
        if mask land (1 lsl i) <> 0 then wa := !wa + vw.(vol.(i))
      done;
      !wa
    end
    else Bitset.popcount mask
  in
  let residual_of mask =
    let nbrs = Bitset.create n in
    for i = 0 to s - 1 do
      if mask land (1 lsl i) <> 0 then Bitset.union_into nbrs adj.(vol.(i))
    done;
    let rest = List.filter (fun v -> not (Bitset.mem nbrs v)) nonvol in
    (* Graph.induced carries the vertex weights over, so the residual
       MWIS sees the core's weights unchanged *)
    let sub, _ = Graph.induced g rest in
    if weighted then fst (Mis.max_weight_set sub) else Mis.alpha sub
  in
  (base_of, residual_of)

(* [g] is the memo's frozen key: families patch the caller's graph in
   place between pairs, and the lazy evaluator must keep seeing the
   build-time topology and weights. *)
let build_mis_tables ~weighted g ~volatile =
  let n = Graph.n g in
  let vol = Array.of_list volatile in
  let s = Array.length vol in
  if s > 62 then invalid_arg "Cache.mis_prepare: too many volatile vertices";
  let vol_index = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= n then invalid_arg "Cache.mis_prepare: bad vertex";
      vol_index.(v) <- i)
    vol;
  let base_of, residual_of = mis_value_parts ~weighted g ~vol ~vol_index in
  let adj = Graph.adjacency g in
  (* core adjacency restricted to the volatile set, as index masks *)
  let vadj = Array.make (max s 1) 0 in
  for i = 0 to s - 1 do
    for j = 0 to s - 1 do
      if i <> j && Bitset.mem adj.(vol.(i)) vol.(j) then
        vadj.(i) <- vadj.(i) lor (1 lsl j)
    done
  done;
  (* One exact solve at build time: the ∅ residual, which both seeds the
     memo and caps every other entry from above. *)
  let rest0 = residual_of 0 in
  let masks = ref [] and count = ref 0 in
  (* all subsets of volatile independent in the core; masks only ever
     contain indices < i *)
  let rec go i mask =
    if i = s then begin
      incr count;
      if !count > 65_536 then
        invalid_arg "Cache.mis_prepare: too many independent volatile subsets";
      masks := mask :: !masks
    end
    else begin
      go (i + 1) mask;
      if mask land vadj.(i) = 0 then go (i + 1) (mask lor (1 lsl i))
    end
  in
  go 0 0;
  let keyed = Array.of_list (List.map (fun m -> (base_of m + rest0, m)) !masks) in
  Array.sort
    (fun (ua, ma) (ub, mb) -> if ua <> ub then compare ub ua else compare ma mb)
    keyed;
  {
    mi_core = g;
    mi_weighted = weighted;
    mi_vol = vol;
    mi_vol_index = vol_index;
    mi_masks = Array.map snd keyed;
    mi_ubs = Array.map fst keyed;
    mi_vals = Array.map (fun (_, mk) -> if mk = 0 then rest0 else -1) keyed;
  }

let prepare_mis ~weighted g ~volatile =
  let kind = if weighted then mwis_kind else mis_kind in
  let aux =
    (if weighted then "w;" else "") ^ String.concat "," (List.map string_of_int volatile)
  in
  let tables, was_hit =
    Memo.find_or_build mis_memo (g, aux) ~build:(fun (frozen, _) ->
        Tally.built kind;
        build_mis_tables ~weighted frozen ~volatile)
  in
  {
    mi = tables;
    mic = Tally.make kind ~was_hit;
    mieval = None;
    miconf = Array.make (max (Array.length tables.mi_vol) 1) 0;
  }

let mis_prepare = prepare_mis ~weighted:false
let mwis_prepare = prepare_mis ~weighted:true

(* Lazy evaluation with double-checked locking: the unlocked probe races
   only against a single int store (no tearing on immediates), and a
   stale [-1] just falls through to the locked re-check, so each entry
   is solved exactly once process-wide. *)
let mis_entry_value c i =
  let t = c.mi in
  let v = t.mi_vals.(i) in
  if v >= 0 then v
  else begin
    let eval =
      match c.mieval with
      | Some f -> f
      | None ->
          let base_of, residual_of =
            mis_value_parts ~weighted:t.mi_weighted t.mi_core ~vol:t.mi_vol
              ~vol_index:t.mi_vol_index
          in
          let f mask = base_of mask + residual_of mask in
          c.mieval <- Some f;
          f
    in
    Mutex.lock mis_eval_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mis_eval_lock)
      (fun () ->
        let v = t.mi_vals.(i) in
        if v >= 0 then v
        else begin
          let v = eval t.mi_masks.(i) in
          t.mi_vals.(i) <- v;
          Obs.bump c_mis_evals;
          v
        end)
  end

let mis_alpha c ~extra =
  Tally.query c.mic;
  let t = c.mi in
  let n = Graph.n t.mi_core in
  let conf = c.miconf in
  Array.fill conf 0 (Array.length conf) 0;
  let touched =
    List.fold_left
      (fun touched (u, v) ->
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg "Cache.mis_alpha: edge out of range";
        let iu = t.mi_vol_index.(u) and iv = t.mi_vol_index.(v) in
        if iu < 0 || iv < 0 then
          invalid_arg "Cache.mis_alpha: extra edge endpoint not volatile";
        conf.(iu) <- conf.(iu) lor (1 lsl iv);
        conf.(iv) <- conf.(iv) lor (1 lsl iu);
        touched lor (1 lsl iu) lor (1 lsl iv))
      0 extra
  in
  (* Scan in decreasing-ub order; stop once no later entry's bound can
     beat the best exact value.  An entry is compatible when none of its
     members touched by an extra edge has a conflict inside it.  The
     empty subset is always compatible, so [best] is eventually set and
     the scan terminates. *)
  let masks = t.mi_masks and ubs = t.mi_ubs in
  let nentries = Array.length masks in
  let best = ref min_int in
  let i = ref 0 in
  while !i < nentries && ubs.(!i) > !best do
    let mask = masks.(!i) in
    let rest = ref (mask land touched) in
    while !rest <> 0 && mask land conf.(Bitset.trailing_zeros !rest) = 0 do
      rest := !rest land (!rest - 1)
    done;
    if !rest = 0 then begin
      let v = mis_entry_value c !i in
      if v > !best then best := v
    end;
    incr i
  done;
  !best

let mwis_weight = mis_alpha
let mis_stats c = Tally.stats c.mic

(* ------------------------------------------------------------------ *)
(* Node-weighted Steiner: the inclusion-minimal feasible connector sets *)
(* ------------------------------------------------------------------ *)

(* Steiner.node_weighted equals min over U ⊇ terminals with G[U]
   connected of w(U): a minimum tree's vertex set induces a connected
   subgraph, and a spanning tree of any connected G[U] contains the
   terminals at weight w(U).  Connectivity of G[U] depends on the core
   topology alone, so it is decided here for every subset S of
   non-terminals — which is how the Section 4.4 family (fixed topology,
   input-dependent weights) answers each pair without a Dreyfus–Wagner
   run.  Weights are checked non-negative, so every feasible S contains
   an inclusion-minimal feasible S' with w(S') ≤ w(S): only those minimal
   masks are kept, and a query sums the current weights over each. *)

type nwsteiner_tables = {
  nw_n : int;
  nw_terms : int array;  (* sorted terminals *)
  nw_nonterm : int array;  (* non-terminal vertex per mask bit *)
  nw_minimal : int array;  (* inclusion-minimal masks with G[terms ∪ S] connected *)
}

type nwsteiner = { nwt : nwsteiner_tables; nwc : Tally.t }

let nwsteiner_memo : (gkey, nwsteiner_tables) Memo.t = graph_memo ()
let nwsteiner_kind = Tally.kind "nwsteiner"

let build_nwsteiner_tables g ~terminals =
  let n = Graph.n g in
  let terminals = List.sort_uniq compare terminals in
  if terminals = [] then invalid_arg "Cache.nwsteiner_prepare: no terminals";
  List.iter
    (fun t ->
      if t < 0 || t >= n then invalid_arg "Cache.nwsteiner_prepare: bad terminal")
    terminals;
  let is_terminal = Array.make n false in
  List.iter (fun t -> is_terminal.(t) <- true) terminals;
  let nonterm =
    Array.of_list (List.filter (fun v -> not is_terminal.(v)) (List.init n Fun.id))
  in
  let m = Array.length nonterm in
  if m > 18 then invalid_arg "Cache.nwsteiner_prepare: too many non-terminals";
  let edges = Array.of_list (List.map (fun (u, v, _) -> (u, v)) (Graph.edges g)) in
  let feasible = Bytes.make (1 lsl m) '\000' in
  let sel = Array.make n false in
  List.iter (fun t -> sel.(t) <- true) terminals;
  let nterms = List.length terminals in
  for mask = 0 to (1 lsl m) - 1 do
    let selected = ref nterms in
    for i = 0 to m - 1 do
      let on = mask land (1 lsl i) <> 0 in
      sel.(nonterm.(i)) <- on;
      if on then incr selected
    done;
    let uf = Union_find.create n in
    let classes = ref !selected in
    Array.iter
      (fun (u, v) -> if sel.(u) && sel.(v) && Union_find.union uf u v then decr classes)
      edges;
    if !classes = 1 then Bytes.set feasible mask '\001'
  done;
  (* Subset sweep in increasing mask order: [below] marks the masks with
     a feasible proper subset, read off the masks one bit smaller. *)
  let below = Bytes.make (1 lsl m) '\000' in
  let minimal = ref [] in
  for mask = 0 to (1 lsl m) - 1 do
    let rest = ref mask in
    while !rest <> 0 && Bytes.get below mask = '\000' do
      let sub = mask lxor (!rest land - !rest) in
      if Bytes.get feasible sub = '\001' || Bytes.get below sub = '\001' then
        Bytes.set below mask '\001';
      rest := !rest land (!rest - 1)
    done;
    if Bytes.get feasible mask = '\001' && Bytes.get below mask = '\000' then
      minimal := mask :: !minimal
  done;
  {
    nw_n = n;
    nw_terms = Array.of_list terminals;
    nw_nonterm = nonterm;
    nw_minimal = Array.of_list (List.rev !minimal);
  }

let nwsteiner_prepare g ~terminals =
  let aux =
    String.concat "," (List.map string_of_int (List.sort_uniq compare terminals))
  in
  let tables, was_hit =
    Memo.find_or_build nwsteiner_memo (g, aux) ~build:(fun _ ->
        Tally.built nwsteiner_kind;
        build_nwsteiner_tables g ~terminals)
  in
  { nwt = tables; nwc = Tally.make nwsteiner_kind ~was_hit }

let nwsteiner_cost c ~weights =
  Tally.query c.nwc;
  let t = c.nwt in
  if Array.length weights <> t.nw_n then
    invalid_arg "Cache.nwsteiner_cost: weights length mismatch";
  for v = 0 to t.nw_n - 1 do
    if weights.(v) < 0 then invalid_arg "Steiner.node_weighted: negative weight"
  done;
  let base = ref 0 in
  for i = 0 to Array.length t.nw_terms - 1 do
    base := !base + weights.(t.nw_terms.(i))
  done;
  let nonterm = t.nw_nonterm and minimal = t.nw_minimal in
  let best = ref max_int in
  for k = 0 to Array.length minimal - 1 do
    let rest = ref minimal.(k) and sum = ref !base in
    while !rest <> 0 do
      sum := !sum + weights.(nonterm.(Bitset.trailing_zeros !rest));
      rest := !rest land (!rest - 1)
    done;
    if !sum < !best then best := !sum
  done;
  if Array.length minimal = 0 then
    invalid_arg "Steiner.node_weighted: terminals disconnected"
  else !best

let nwsteiner_stats c = Tally.stats c.nwc

(* ------------------------------------------------------------------ *)
(* Directed Steiner: shared reversed-adjacency snapshot                *)
(* ------------------------------------------------------------------ *)

(* The Theorem 4.7 arborescence solve is per-pair work (input arcs carry
   the pair), but the core's reversed-adjacency view is not: a query
   copies the row array and conses its extra arcs on the touched rows —
   the shared core rows are untouched tails — then runs
   Steiner.directed_over.  Digraphs have no structural-hash module, so
   the memo keys on the sorted arc list plus the query frame. *)

type dsteiner_tables = {
  dsn : int;
  dsrev : (int * int) list array;
  dsroot : int;
  dsterms : int list;
}

type dsteiner = { dst : dsteiner_tables; dsc : Tally.t }
type dkey = int * (int * int * int) list * int * int list  (* n, arcs, root, terminals *)

let dsteiner_kind = Tally.kind "dsteiner"

let dsteiner_memo : (dkey, dsteiner_tables) Memo.t =
  Memo.create ~hash:Hashtbl.hash ~equal:( = ) ~order:compare ~freeze:Fun.id

let dsteiner_prepare dg ~root ~terminals =
  let terminals = List.sort_uniq compare terminals in
  let tables, was_hit =
    Memo.find_or_build dsteiner_memo
      (Digraph.n dg, Digraph.arcs dg, root, terminals)
      ~build:(fun _ ->
        Tally.built dsteiner_kind;
        let n = Digraph.n dg in
        let rev = Array.make n [] in
        Digraph.iter_arcs (fun u v w -> rev.(v) <- (u, w) :: rev.(v)) dg;
        { dsn = n; dsrev = rev; dsroot = root; dsterms = terminals })
  in
  { dst = tables; dsc = Tally.make dsteiner_kind ~was_hit }

let dsteiner_cost ?cutoff c ~extra =
  Tally.query c.dsc;
  let t = c.dst in
  let rev = Array.copy t.dsrev in
  List.iter
    (fun (u, v, w) ->
      if u < 0 || u >= t.dsn || v < 0 || v >= t.dsn then
        invalid_arg "Cache.dsteiner_cost: arc out of range";
      rev.(v) <- (u, w) :: rev.(v))
    extra;
  Steiner.directed_over ?cutoff ~reversed:rev ~root:t.dsroot t.dsterms

let dsteiner_stats c = Tally.stats c.dsc

(* ------------------------------------------------------------------ *)
(* Dominating set: shared closed balls with copy-on-write patching    *)
(* ------------------------------------------------------------------ *)

type domset_tables = { dn : int; dradius : int; dballs : Bitset.t array }

type domset = { dt : domset_tables; dc : Tally.t }

let domset_memo : (gkey, domset_tables) Memo.t = graph_memo ()
let domset_kind = Tally.kind "domset"

let domset_prepare g ~radius =
  if radius < 1 then invalid_arg "Cache.domset_prepare: radius must be >= 1";
  let aux = string_of_int radius in
  let tables, was_hit =
    Memo.find_or_build domset_memo (g, aux) ~build:(fun _ ->
        Tally.built domset_kind;
        {
          dn = Graph.n g;
          dradius = radius;
          dballs = Array.init (Graph.n g) (fun v -> Props.reachable_within g v ~radius);
        })
  in
  { dt = tables; dc = Tally.make domset_kind ~was_hit }

(* Adding edge {u,v} only changes the closed radius-1 balls of u and v,
   so the patched array shares every untouched ball with the core
   tables (which solvers only read — see Domset.min_weight_set).  At
   radius > 1 an extra edge can grow balls far from its endpoints, so
   the copy-on-write patch is only sound with [extra = []] — the
   weights-only families (Theorems 4.2/4.4) query exactly that way. *)
let domset_balls c ~extra =
  Tally.query c.dc;
  let t = c.dt in
  if extra <> [] && t.dradius <> 1 then
    invalid_arg "Cache.domset_balls: extra edges require radius 1";
  let balls = Array.copy t.dballs in
  let owned = Array.make t.dn false in
  let touch v =
    if v < 0 || v >= t.dn then invalid_arg "Cache.domset_balls: edge out of range";
    if not owned.(v) then begin
      owned.(v) <- true;
      balls.(v) <- Bitset.copy balls.(v)
    end
  in
  List.iter
    (fun (u, v) ->
      touch u;
      touch v;
      Bitset.add balls.(u) v;
      Bitset.add balls.(v) u)
    extra;
  balls

let domset_stats c = Tally.stats c.dc

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                 *)
(* ------------------------------------------------------------------ *)

(* Every memo is plain data, so a snapshot is each memo's sorted
   [Memo.entries] marshalled under one tag: identical memo contents
   marshal to identical bytes, which lets the store checksum snapshots
   like any other block.  MIS values are read under no lock: a racing
   lazy solve can only flip a cell from -1 to its final value, and a
   stale -1 just re-solves after restore. *)
type dump = {
  d_steiner : (gkey * steiner_tables) list;
  d_maxcut : (gkey * maxcut_tables) list;
  d_mis : (gkey * mis_tables) list;
  d_nwsteiner : (gkey * nwsteiner_tables) list;
  d_domset : (gkey * domset_tables) list;
  d_dsteiner : (dkey * dsteiner_tables) list;
}

(* Changes with the dump layout ("chcache2" before every memo shared one
   entry shape, "chcache3" while the node-weighted Steiner tables held
   one feasibility byte per connector mask): an older snapshot fails
   the tag check cleanly (reported corrupt by the sweep store,
   recomputed) instead of being misparsed. *)
let snapshot_tag = "chcache4"

let snapshot () =
  let dump =
    {
      d_steiner = Memo.entries steiner_memo;
      d_maxcut = Memo.entries maxcut_memo;
      d_mis = Memo.entries mis_memo;
      d_nwsteiner = Memo.entries nwsteiner_memo;
      d_domset = Memo.entries domset_memo;
      d_dsteiner = Memo.entries dsteiner_memo;
    }
  in
  snapshot_tag ^ Marshal.to_string dump []

(* The lazy evaluator indexes the frozen core through these arrays, so
   a mangled MIS entry fails the restore rather than poisoning the memo. *)
let mis_entry_ok (_, t) =
  let m = Array.length t.mi_masks in
  Array.length t.mi_ubs = m
  && Array.length t.mi_vals = m
  && Array.length t.mi_vol_index = Graph.n t.mi_core
  && Array.length t.mi_vol <= 62
  && (Array.iteri (fun i v -> if t.mi_vol_index.(v) <> i then raise Exit) t.mi_vol;
      true)

(* A node-weighted Steiner query indexes the weights through these
   arrays: a mangled entry fails the restore, not a later query. *)
let nwsteiner_entry_ok (_, t) =
  let in_range v = v >= 0 && v < t.nw_n in
  let m = Array.length t.nw_nonterm in
  m <= 18
  && Array.for_all in_range t.nw_nonterm
  && Array.for_all in_range t.nw_terms
  && Array.for_all (fun mask -> mask >= 0 && mask < 1 lsl m) t.nw_minimal

let restore s =
  let tl = String.length snapshot_tag in
  if String.length s < tl || String.sub s 0 tl <> snapshot_tag then
    failwith "Cache.restore: not a cache snapshot";
  let dump =
    try
      let d = (Marshal.from_string s tl : dump) in
      if List.for_all mis_entry_ok d.d_mis
         && List.for_all nwsteiner_entry_ok d.d_nwsteiner
      then d
      else raise Exit
    with _ -> failwith "Cache.restore: unparseable snapshot"
  in
  Memo.restore steiner_memo dump.d_steiner
  + Memo.restore maxcut_memo dump.d_maxcut
  + Memo.restore mis_memo dump.d_mis
  + Memo.restore nwsteiner_memo dump.d_nwsteiner
  + Memo.restore domset_memo dump.d_domset
  + Memo.restore dsteiner_memo dump.d_dsteiner

let clear () =
  Memo.clear steiner_memo;
  Memo.clear maxcut_memo;
  Memo.clear mis_memo;
  Memo.clear nwsteiner_memo;
  Memo.clear domset_memo;
  Memo.clear dsteiner_memo
