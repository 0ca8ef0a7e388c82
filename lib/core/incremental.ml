module G = Broker_graph.Graph
module View = Broker_graph.View
module Delta = Broker_graph.Delta
module Msbfs = Broker_graph.Msbfs
module Obs = Broker_obs

(* Repair probes: commutative int counters over a sequential,
   deterministic repair, diffable run-to-run like the msbfs.* family. *)
let m_applies = Obs.Metrics.counter "incr.applies"
let m_ops_applied = Obs.Metrics.counter "incr.ops.applied"
let m_ops_noop = Obs.Metrics.counter "incr.ops.noop"
let m_ops_ignored = Obs.Metrics.counter "incr.ops.ignored"
let m_batches_reeval = Obs.Metrics.counter "incr.batches.reevaluated"
let m_batches_skipped = Obs.Metrics.counter "incr.batches.skipped"
let m_sources_affected = Obs.Metrics.counter "incr.sources.affected"
let m_lanes_repaired = Obs.Metrics.counter "incr.lanes.repaired"
let m_pairs_repaired = Obs.Metrics.counter "incr.pairs.repaired"

type op = Add of int * int | Remove of int * int

type stats = {
  applied : int;
  noops : int;
  ignored : int;
  sources_affected : int;
  batches_reevaluated : int;
  batches_total : int;
}

let lanes = Msbfs.lanes

(* Depth-row bytes: 0 .. [max_depth] are BFS depths, [unreached] is "not
   reached". Tentative depths of the repair kernels are plain ints and
   may also be [unreached] (reachable, but too deep for a byte: the
   batch falls back to a re-sweep) or [inf] (no route at all). *)
let max_depth = Msbfs.max_recorded_depth
let unreached = Char.code Msbfs.unreached
let inf = unreached + 1

(* The tracker maintains the dominated-connectivity curve of an evolving
   topology. Only dominated edges (a broker endpoint) survive the
   projection the evaluators run on, so the tracker keeps a {!Delta}
   over the *projected* base graph and applies exactly the dominated
   subset of each update burst to it. Beside every batch's MS-BFS
   tallies it keeps each source's exact BFS depths, one byte row per
   source, and repairs those rows in place after a burst (dynamic
   unit-weight BFS): every depth that changes moves one count in its
   batch's tallies, so a burst costs the (source, vertex) distances it
   changes. Everything cached is an integer count keyed by batch id and
   the final curve goes through {!Connectivity.curve_of_counts}, so it
   is bitwise identical to a from-scratch {!Connectivity.eval_sources}
   for any REPRO_DOMAINS. *)
type t = {
  n : int;  (* vertex count of the original graph *)
  l_max : int;
  is_broker : int -> bool;
  sources : int array;
  nbatch : int;
  pdelta : Delta.t;  (* overlay over the projected base *)
  depth : Bytes.t array;  (* depth.(i): source i's BFS depth per vertex *)
  deep : bool array;  (* deep.(b): a lane of batch b reached below [max_depth] *)
  hists : int array array;  (* per-batch first-arrival pair counts *)
  reached : int array;  (* per-batch pairs settled at depth >= 1 *)
  ws : workspace;
  mutable last : stats;
}

(* Repair scratch shared by every lane: a lane bumps [epoch] once, and a
   per-vertex word below is meaningful only while its stamp equals the
   current epoch, so nothing is cleared between lanes. *)
and workspace = {
  mutable epoch : int;
  cand : int array;  (* cand.(v) = epoch: v queued as a removal candidate *)
  aff : int array;  (* aff.(v) = epoch: v lost every shortest path *)
  fin : int array;  (* fin.(v) = epoch: v's re-seated depth is final *)
  seen : int array;  (* seen.(v) = epoch: v is on [touched], old depth in [orig] *)
  orig : int array;
  dist : int array;  (* tentative depth of an affected vertex *)
  touched : int array;  (* vertices whose depth the lane may have changed *)
  mutable n_touched : int;
  affected : int array;
  queue : int array;  (* FIFO of vertices; [qdepth] nondecreasing along it *)
  qdepth : int array;
  mutable seeds : int array;  (* seeds.(0 .. k-1), sorted by [sdepth] *)
  mutable sdepth : int array;
  mutable tmp : int array;  (* counting-sort output *)
  mutable tmpd : int array;
  count : int array;  (* counting-sort buckets, one per depth 0 .. inf *)
}

let workspace n =
  {
    epoch = 0;
    cand = Array.make n 0;
    aff = Array.make n 0;
    fin = Array.make n 0;
    seen = Array.make n 0;
    orig = Array.make n 0;
    dist = Array.make n 0;
    touched = Array.make n 0;
    n_touched = 0;
    affected = Array.make n 0;
    queue = Array.make n 0;
    qdepth = Array.make n 0;
    seeds = Array.make n 0;
    sdepth = Array.make n 0;
    tmp = Array.make n 0;
    tmpd = Array.make n 0;
    count = Array.make (inf + 2) 0;
  }

(* Seeds of the add phase are not deduplicated: up to two per added
   edge, which can exceed n on a tiny graph. *)
let ensure_seeds ws k =
  if Array.length ws.seeds < k then begin
    ws.seeds <- Array.make k 0;
    ws.sdepth <- Array.make k 0;
    ws.tmp <- Array.make k 0;
    ws.tmpd <- Array.make k 0
  end

let no_stats =
  {
    applied = 0;
    noops = 0;
    ignored = 0;
    sources_affected = 0;
    batches_reevaluated = 0;
    batches_total = 0;
  }

(* Sweep the batches listed in [ids] against [vw], recording every
   lane's depth row, and overwrite their tallies. Workers only read
   shared state, write the depth rows of their own batches (disjoint)
   and return tallies keyed by batch id (merged by list append), so the
   strided split passes C1 domain-safety and everything written is
   split-independent. *)
let sweep t vw ids =
  let sources = t.sources and l_max = t.l_max in
  let nsrc = Array.length sources in
  let nids = Array.length ids in
  let worker ~start ~step =
    let ws = Msbfs.workspace () in
    let rows = ref [] in
    let i = ref start in
    while !i < nids do
      let b = ids.(!i) in
      let lo = b * lanes in
      let len = min lanes (nsrc - lo) in
      Msbfs.run_view ws vw ~depths:t.depth sources ~lo ~len;
      let hist = Array.make (l_max + 1) 0 in
      let reached = ref 0 in
      for d = 1 to Msbfs.max_level ws do
        let c = Msbfs.level_pairs ws d in
        reached := !reached + c;
        if d <= l_max then hist.(d) <- hist.(d) + c
      done;
      let deep = Msbfs.max_level ws > max_depth in
      rows := (b, hist, !reached, deep) :: !rows;
      i := !i + step
    done;
    !rows
  in
  let rows =
    Broker_util.Parallel.strided ~n:nids ~worker
      ~merge:(fun a b -> List.rev_append b a)
      []
  in
  List.iter
    (fun (b, hist, reached, deep) ->
      t.hists.(b) <- hist;
      t.reached.(b) <- reached;
      t.deep.(b) <- deep)
    rows

let create ?(l_max = 10) g ~is_broker ~sources =
  let n = G.n g in
  let sources = Array.copy sources in
  let nsrc = Array.length sources in
  let nbatch = (nsrc + lanes - 1) / lanes in
  let pg = Broker_graph.Projected.graph (Broker_graph.Projected.project g ~is_broker) in
  let t =
    {
      n;
      l_max;
      is_broker;
      sources;
      nbatch;
      pdelta = Delta.create pg;
      depth = Array.init nsrc (fun _ -> Bytes.create n);
      deep = Array.make nbatch false;
      hists = Array.init nbatch (fun _ -> Array.make (l_max + 1) 0);
      reached = Array.make nbatch 0;
      ws = workspace n;
      last = no_stats;
    }
  in
  sweep t (View.of_graph pg) (Array.init nbatch (fun b -> b));
  t

let l_max t = t.l_max
let batches t = t.nbatch
let last_stats t = t.last
let tallies t = Array.init t.nbatch (fun b -> (Array.copy t.hists.(b), t.reached.(b)))

let[@inline] depth_at row v = Char.code (Bytes.unsafe_get row v)

(* Sort seeds.(0 .. k-1) by [sdepth]: insertion for a handful, counting
   sort over the depth range otherwise. Equal depths may come out in any
   order — the kernels' results do not depend on it. *)
let[@brokercheck.noalloc] sort_seeds ws k =
  let seeds = ws.seeds and sdepth = ws.sdepth in
  if k <= 32 then begin
    let j = ref 0 in
    for i = 1 to k - 1 do
      let v = Array.unsafe_get seeds i and d = Array.unsafe_get sdepth i in
      j := i - 1;
      while !j >= 0 && Array.unsafe_get sdepth !j > d do
        Array.unsafe_set seeds (!j + 1) (Array.unsafe_get seeds !j);
        Array.unsafe_set sdepth (!j + 1) (Array.unsafe_get sdepth !j);
        decr j
      done;
      Array.unsafe_set seeds (!j + 1) v;
      Array.unsafe_set sdepth (!j + 1) d
    done
  end
  else begin
    let count = ws.count and tmp = ws.tmp and tmpd = ws.tmpd in
    Array.fill count 0 (Array.length count) 0;
    for i = 0 to k - 1 do
      let d = Array.unsafe_get sdepth i + 1 in
      Array.unsafe_set count d (Array.unsafe_get count d + 1)
    done;
    for d = 1 to Array.length count - 1 do
      Array.unsafe_set count d
        (Array.unsafe_get count d + Array.unsafe_get count (d - 1))
    done;
    for i = 0 to k - 1 do
      let d = Array.unsafe_get sdepth i in
      let p = Array.unsafe_get count d in
      Array.unsafe_set tmp p (Array.unsafe_get seeds i);
      Array.unsafe_set tmpd p d;
      Array.unsafe_set count d (p + 1)
    done;
    Array.blit tmp 0 seeds 0 k;
    Array.blit tmpd 0 sdepth 0 k
  end

(* Remember [w]'s depth before the lane first changes it. *)
let[@inline] touch ws row w =
  if Array.unsafe_get ws.seen w <> ws.epoch then begin
    Array.unsafe_set ws.seen w ws.epoch;
    Array.unsafe_set ws.orig w (depth_at row w);
    Array.unsafe_set ws.touched ws.n_touched w;
    ws.n_touched <- ws.n_touched + 1
  end

(* Removal phase of one lane over [vw] = old edges minus the withdrawn
   set R (edges [ru.(e)]-[rv.(e)], e < nr). [row] holds the lane's old
   depths. A vertex at depth k keeps it iff some neighbour left in [vw]
   sits at k - 1 and keeps its own; the only vertices that can fail
   the test are the deeper endpoints of withdrawn shortest-path arcs
   (|d(u) - d(v)| = 1) and, transitively, the children (depth k + 1) of
   vertices that failed it. Candidates are decided in depth order, each
   against final verdicts one level up. The affected vertices are then
   re-seated from their unaffected neighbours by a unit-weight Dijkstra
   (depth-sorted seeds merged with a FIFO); any left unreached become
   [unreached]. Returns [false], leaving the row as it was, when a
   vertex would land deeper than [max_depth]. Segments are read inline
   from the view record, as [Dominating.search] does. *)
let[@brokercheck.noalloc] repair_removals ws vw row ru rv nr =
  let epoch = ws.epoch in
  let off = vw.View.off and adj = vw.View.adj in
  let ov = vw.View.overlaid in
  let dirty = vw.View.dirty and xoff = vw.View.xoff and xadj = vw.View.xadj in
  let cand = ws.cand and aff = ws.aff and fin = ws.fin and dist = ws.dist in
  let affected = ws.affected and queue = ws.queue and qdepth = ws.qdepth in
  let seeds = ws.seeds and sdepth = ws.sdepth in
  let k = ref 0 in
  for e = 0 to nr - 1 do
    let u = Array.unsafe_get ru e and v = Array.unsafe_get rv e in
    let du = depth_at row u and dv = depth_at row v in
    let w = if dv = du + 1 then v else if du = dv + 1 then u else -1 in
    if w >= 0 && du < unreached && dv < unreached
       && Array.unsafe_get cand w <> epoch
    then begin
      Array.unsafe_set cand w epoch;
      Array.unsafe_set seeds !k w;
      Array.unsafe_set sdepth !k (depth_at row w);
      incr k
    end
  done;
  if !k = 0 then true
  else begin
    let nseeds = !k in
    sort_seeds ws nseeds;
    let si = ref 0 and qh = ref 0 and qt = ref 0 and n_aff = ref 0 in
    let j = ref 0 and hi = ref 0 and found = ref false in
    while !si < nseeds || !qh < !qt do
      let from_seed =
        !si < nseeds
        && (!qh >= !qt || Array.unsafe_get sdepth !si <= Array.unsafe_get qdepth !qh)
      in
      let w =
        if from_seed then Array.unsafe_get seeds !si else Array.unsafe_get queue !qh
      in
      let d =
        if from_seed then Array.unsafe_get sdepth !si else Array.unsafe_get qdepth !qh
      in
      if from_seed then incr si else incr qh;
      let dw = ov && Array.unsafe_get dirty w in
      let a = if dw then xadj else adj in
      let lo = if dw then Array.unsafe_get xoff w else Array.unsafe_get off w in
      hi := if dw then Array.unsafe_get xoff (w + 1) else Array.unsafe_get off (w + 1);
      j := lo;
      found := false;
      while !j < !hi && not !found do
        let x = Array.unsafe_get a !j in
        if depth_at row x = d - 1 && Array.unsafe_get aff x <> epoch then
          found := true;
        incr j
      done;
      if not !found then begin
        Array.unsafe_set aff w epoch;
        Array.unsafe_set affected !n_aff w;
        incr n_aff;
        if d < max_depth then
          for i = lo to !hi - 1 do
            let y = Array.unsafe_get a i in
            if depth_at row y = d + 1 && Array.unsafe_get cand y <> epoch then begin
              Array.unsafe_set cand y epoch;
              Array.unsafe_set queue !qt y;
              Array.unsafe_set qdepth !qt (d + 1);
              incr qt
            end
          done
      end
    done;
    (* Re-seat: a tentative depth from the best unaffected neighbour
       (an unreached one offers [inf]), then Dijkstra among the
       affected vertices alone. *)
    let na = !n_aff and best = ref inf in
    for i = 0 to na - 1 do
      let w = Array.unsafe_get affected i in
      let dw = ov && Array.unsafe_get dirty w in
      let a = if dw then xadj else adj in
      let lo = if dw then Array.unsafe_get xoff w else Array.unsafe_get off w in
      let hi = if dw then Array.unsafe_get xoff (w + 1) else Array.unsafe_get off (w + 1) in
      best := inf;
      for p = lo to hi - 1 do
        let x = Array.unsafe_get a p in
        if Array.unsafe_get aff x <> epoch then begin
          let dx = depth_at row x + 1 in
          if dx < !best then best := dx
        end
      done;
      Array.unsafe_set dist w !best;
      Array.unsafe_set seeds i w;
      Array.unsafe_set sdepth i !best;
      touch ws row w
    done;
    sort_seeds ws na;
    si := 0;
    qh := 0;
    qt := 0;
    let ok = ref true in
    while
      !ok && (!qh < !qt || (!si < na && Array.unsafe_get sdepth !si < inf))
    do
      let from_seed =
        !si < na
        && Array.unsafe_get sdepth !si < inf
        && (!qh >= !qt || Array.unsafe_get sdepth !si <= Array.unsafe_get qdepth !qh)
      in
      let w =
        if from_seed then Array.unsafe_get seeds !si else Array.unsafe_get queue !qh
      in
      let d =
        if from_seed then Array.unsafe_get sdepth !si else Array.unsafe_get qdepth !qh
      in
      if from_seed then incr si else incr qh;
      if Array.unsafe_get fin w <> epoch then
        if d > max_depth then ok := false
        else begin
          Array.unsafe_set fin w epoch;
          let dw = ov && Array.unsafe_get dirty w in
          let a = if dw then xadj else adj in
          let lo = if dw then Array.unsafe_get xoff w else Array.unsafe_get off w in
          let hi =
            if dw then Array.unsafe_get xoff (w + 1) else Array.unsafe_get off (w + 1)
          in
          for p = lo to hi - 1 do
            let y = Array.unsafe_get a p in
            if Array.unsafe_get aff y = epoch
               && Array.unsafe_get fin y <> epoch
               && d + 1 < Array.unsafe_get dist y
            then begin
              Array.unsafe_set dist y (d + 1);
              Array.unsafe_set queue !qt y;
              Array.unsafe_set qdepth !qt (d + 1);
              incr qt
            end
          done
        end
    done;
    if !ok then
      for i = 0 to na - 1 do
        let w = Array.unsafe_get affected i in
        let d = if Array.unsafe_get fin w = epoch then Array.unsafe_get dist w else unreached in
        Bytes.unsafe_set row w (Char.unsafe_chr d)
      done;
    !ok
  end

(* Add phase of one lane over [vw] = the new edge set, from the depths
   the removal phase left in [row]: decrease-only propagation from the
   endpoints of the announced set A. Each added edge proposes d(x) + 1
   to its far endpoint; proposals are applied in depth order (sorted
   seeds merged with a FIFO of lowered vertices), so every vertex is
   expanded once, at its final depth. Returns [false], with the row
   partly written, when a vertex would land deeper than [max_depth]. *)
let[@brokercheck.noalloc] repair_adds ws vw row au av na =
  let off = vw.View.off and adj = vw.View.adj in
  let ov = vw.View.overlaid in
  let dirty = vw.View.dirty and xoff = vw.View.xoff and xadj = vw.View.xadj in
  let queue = ws.queue and qdepth = ws.qdepth in
  let seeds = ws.seeds and sdepth = ws.sdepth in
  let k = ref 0 in
  for e = 0 to na - 1 do
    let u = Array.unsafe_get au e and v = Array.unsafe_get av e in
    let du = depth_at row u and dv = depth_at row v in
    if du < unreached && (du + 1 < dv || dv = unreached) then begin
      Array.unsafe_set seeds !k v;
      Array.unsafe_set sdepth !k (du + 1);
      incr k
    end
    else if dv < unreached && (dv + 1 < du || du = unreached) then begin
      Array.unsafe_set seeds !k u;
      Array.unsafe_set sdepth !k (dv + 1);
      incr k
    end
  done;
  let nseeds = !k in
  sort_seeds ws nseeds;
  let si = ref 0 and qh = ref 0 and qt = ref 0 and ok = ref true in
  while !ok && (!si < nseeds || !qh < !qt) do
    let from_seed =
      !si < nseeds
      && (!qh >= !qt || Array.unsafe_get sdepth !si <= Array.unsafe_get qdepth !qh)
    in
    let w =
      if from_seed then Array.unsafe_get seeds !si else Array.unsafe_get queue !qh
    in
    let d =
      if from_seed then Array.unsafe_get sdepth !si else Array.unsafe_get qdepth !qh
    in
    if from_seed then incr si else incr qh;
    (* A FIFO vertex was lowered to [d] when pushed; a seed may have been
       overtaken, or may name a vertex only reachable too deep. *)
    let expand =
      (not from_seed)
      ||
      let r = depth_at row w in
      if d < r then begin
        touch ws row w;
        Bytes.unsafe_set row w (Char.unsafe_chr d);
        true
      end
      else begin
        if r = unreached then ok := false;
        false
      end
    in
    if expand then begin
      let dw = ov && Array.unsafe_get dirty w in
      let a = if dw then xadj else adj in
      let lo = if dw then Array.unsafe_get xoff w else Array.unsafe_get off w in
      let hi = if dw then Array.unsafe_get xoff (w + 1) else Array.unsafe_get off (w + 1) in
      for p = lo to hi - 1 do
        let y = Array.unsafe_get a p in
        let ry = depth_at row y in
        if d + 1 < ry then begin
          touch ws row y;
          Bytes.unsafe_set row y (Char.unsafe_chr (d + 1));
          Array.unsafe_set queue !qt y;
          Array.unsafe_set qdepth !qt (d + 1);
          incr qt
        end
        else if ry = unreached then ok := false
      done
    end
  done;
  !ok

(* Move one tally count per depth that changed in the lane, old depth
   out and new depth in; returns the number of changed depths. *)
let[@brokercheck.noalloc] settle ws row hist reached b l_max =
  let changed = ref 0 in
  for i = 0 to ws.n_touched - 1 do
    let w = Array.unsafe_get ws.touched i in
    let o = Array.unsafe_get ws.orig w and d = depth_at row w in
    if o <> d then begin
      incr changed;
      if o < unreached then begin
        reached.(b) <- reached.(b) - 1;
        if o <= l_max then hist.(o) <- hist.(o) - 1
      end;
      if d < unreached then begin
        reached.(b) <- reached.(b) + 1;
        if d <= l_max then hist.(d) <- hist.(d) + 1
      end
    end
  done;
  !changed

(* Net effect of the burst's effective ops: the first op on a pair
   tells its old state, the overlay its new one, so ops that cancel
   within the burst drop out. Returns (removed, added) endpoint arrays
   in first-op order. *)
let net_changes t log =
  let log = Array.of_list (List.rev log) in
  let key (u, v, _) = (min u v * t.n) + max u v in
  let idx = Array.init (Array.length log) Fun.id in
  Array.stable_sort (fun i j -> Int.compare (key log.(i)) (key log.(j))) idx;
  let first = Array.make (Array.length log) false in
  Array.iteri
    (fun r i -> first.(i) <- r = 0 || key log.(idx.(r - 1)) <> key log.(i))
    idx;
  let removed = ref [] and added = ref [] in
  Array.iteri
    (fun i (u, v, add) ->
      if first.(i) then begin
        let now = Delta.mem_edge t.pdelta u v in
        if add && now then added := (u, v) :: !added
        else if (not add) && not now then removed := (u, v) :: !removed
      end)
    log;
  (Array.of_list (List.rev !removed), Array.of_list (List.rev !added))

let apply t ops =
  let applied = ref 0 and noops = ref 0 and ignored = ref 0 in
  let log = ref [] in
  Array.iter
    (fun op ->
      let u, v, add =
        match op with Add (u, v) -> (u, v, true) | Remove (u, v) -> (u, v, false)
      in
      if not (Connectivity.edge_ok ~is_broker:t.is_broker u v) then
        (* No broker endpoint: the edge never enters the dominated
           projection, so the curve cannot depend on it. *)
        incr ignored
      else begin
        let changed =
          if add then Delta.add_edge t.pdelta u v
          else Delta.remove_edge t.pdelta u v
        in
        if changed then begin
          incr applied;
          log := (u, v, add) :: !log
        end
        else incr noops
      end)
    ops;
  Obs.Metrics.incr m_applies;
  Obs.Metrics.add m_ops_applied !applied;
  Obs.Metrics.add m_ops_noop !noops;
  Obs.Metrics.add m_ops_ignored !ignored;
  let removed, added = net_changes t !log in
  let nr = Array.length removed and na = Array.length added in
  let lanes_repaired = ref 0 and pairs_repaired = ref 0 in
  let resweep = ref [] and nre = ref 0 and resweep_lanes = ref 0 in
  if nr + na > 0 then begin
    (* Removals are repaired on old - R: take A out for one view, then
       put it back for the view of the new edge set. *)
    let nw_view () = Delta.view t.pdelta in
    let mid =
      if nr = 0 || na = 0 then nw_view ()
      else begin
        Array.iter (fun (u, v) -> ignore (Delta.remove_edge t.pdelta u v)) added;
        let vw = nw_view () in
        Array.iter (fun (u, v) -> ignore (Delta.add_edge t.pdelta u v)) added;
        vw
      end
    in
    let nw = nw_view () in
    let ru = Array.map fst removed and rv = Array.map snd removed in
    let au = Array.map fst added and av = Array.map snd added in
    let ws = t.ws in
    ensure_seeds ws (2 * na);
    let nsrc = Array.length t.sources in
    for b = t.nbatch - 1 downto 0 do
      let lo = b * lanes in
      let hi = min (lo + lanes) nsrc in
      let ok = ref (not t.deep.(b)) in
      let lanes_b = ref 0 and pairs_b = ref 0 in
      let i = ref lo in
      while !ok && !i < hi do
        let row = t.depth.(!i) in
        ws.epoch <- ws.epoch + 1;
        ws.n_touched <- 0;
        ok :=
          (nr = 0 || repair_removals ws mid row ru rv nr)
          && (na = 0 || repair_adds ws nw row au av na);
        if !ok then begin
          let c = settle ws row t.hists.(b) t.reached b t.l_max in
          if c > 0 then begin
            incr lanes_b;
            pairs_b := !pairs_b + c
          end
        end;
        incr i
      done;
      if !ok then begin
        lanes_repaired := !lanes_repaired + !lanes_b;
        pairs_repaired := !pairs_repaired + !pairs_b
      end
      else begin
        (* Too deep for a byte row: re-sweep the whole batch, and count
           every one of its lanes as affected. *)
        resweep := b :: !resweep;
        incr nre;
        resweep_lanes := !resweep_lanes + (hi - lo)
      end
    done;
    if !nre > 0 then sweep t nw (Array.of_list !resweep)
  end;
  let affected = !lanes_repaired + !resweep_lanes in
  Obs.Metrics.add m_lanes_repaired !lanes_repaired;
  Obs.Metrics.add m_pairs_repaired !pairs_repaired;
  Obs.Metrics.add m_batches_reeval !nre;
  Obs.Metrics.add m_batches_skipped (t.nbatch - !nre);
  Obs.Metrics.add m_sources_affected affected;
  t.last <-
    {
      applied = !applied;
      noops = !noops;
      ignored = !ignored;
      sources_affected = affected;
      batches_reevaluated = !nre;
      batches_total = t.nbatch;
    };
  t.last

let curve t =
  if t.n < 2 then
    {
      Connectivity.l_max = t.l_max;
      per_hop = Array.make (t.l_max + 1) 0.0;
      saturated = 0.0;
    }
  else begin
    let hist = Array.make (t.l_max + 1) 0 in
    let reached = ref 0 in
    for b = 0 to t.nbatch - 1 do
      let h = t.hists.(b) in
      for l = 1 to t.l_max do
        hist.(l) <- hist.(l) + h.(l)
      done;
      reached := !reached + t.reached.(b)
    done;
    Connectivity.curve_of_counts ~l_max:t.l_max ~hist ~reached:!reached
      ~total:(Array.length t.sources * (t.n - 1))
  end

let saturated t = (curve t).Connectivity.saturated
