module G = Broker_graph.Graph
module View = Broker_graph.View
module Delta = Broker_graph.Delta
module Msbfs = Broker_graph.Msbfs
module Bfs = Broker_graph.Bfs
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
let m_lanes_relabelled = Obs.Metrics.counter "incr.lanes.relabelled"

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
  (* Arcs between affected vertices, as per-vertex linked lists: the
     list of an affected [w] starts at [ehead.(w)] (set when [w] fails)
     and follows [enext]; [eto] holds the far end. Each edge is linked
     once, by whichever endpoint fails second. A lane that needs more
     than the 2n entries is past its budget. *)
  ehead : int array;
  eto : int array;
  enext : int array;
  queue : int array;  (* FIFO of vertices; [qdepth] nondecreasing along it *)
  qdepth : int array;
  mutable seeds : int array;  (* seeds.(0 .. k-1), sorted by [sdepth] *)
  mutable sdepth : int array;
  mutable tmp : int array;  (* counting-sort output *)
  mutable tmpd : int array;
  count : int array;  (* counting-sort buckets, one per depth 0 .. inf *)
  (* The announced edges A of the burst being applied, as a small CSR
     over their endpoints: [amark.(w) = astamp] makes [w] an endpoint,
     whose A-neighbours are [aadj.(aoff.(s) .. aoff.(s + 1) - 1)] for
     [s = aslot.(w)]. The removal phase runs on the new edge set and
     skips these arcs, which leaves exactly old - R. *)
  mutable astamp : int;
  mutable adds : bool;  (* the burst announced at least one edge *)
  amark : int array;
  aslot : int array;
  mutable aoff : int array;
  mutable aadj : int array;
  (* [excl.(x) = k]: x is an A-neighbour of the vertex whose segment
     the kernel is scanning under key [k] (see {!skip_key}). *)
  mutable ekey : int;
  excl : int array;
  (* Arcs scanned and candidates decided by the lane so far, and the
     count past which a BFS of the whole lane is cheaper (see
     {!relabel}). *)
  mutable work : int;
  mutable budget : int;
  bfs : Bfs.workspace;
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
    ehead = Array.make n 0;
    eto = Array.make (2 * n) 0;
    enext = Array.make (2 * n) 0;
    queue = Array.make n 0;
    qdepth = Array.make n 0;
    seeds = Array.make n 0;
    sdepth = Array.make n 0;
    tmp = Array.make n 0;
    tmpd = Array.make n 0;
    count = Array.make (inf + 2) 0;
    astamp = 0;
    adds = false;
    amark = Array.make n 0;
    aslot = Array.make n 0;
    aoff = [||];
    aadj = [||];
    ekey = 0;
    excl = Array.make n 0;
    work = 0;
    budget = 0;
    bfs = Bfs.workspace ();
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

(* Index the announced edges [au.(e)]-[av.(e)], e < na, for the
   removal phase (see [amark]). Bumping [astamp] unmarks the last
   burst's endpoints. *)
let index_added ws au av na =
  ws.astamp <- ws.astamp + 1;
  ws.adds <- na > 0;
  if na > 0 then begin
    if Array.length ws.aoff < (2 * na) + 1 then begin
      ws.aoff <- Array.make ((2 * na) + 1) 0;
      ws.aadj <- Array.make (2 * na) 0
    end;
    let st = ws.astamp and amark = ws.amark and aslot = ws.aslot in
    let aoff = ws.aoff and aadj = ws.aadj in
    (* Slots in first-seen order; aoff.(s + 1) counts slot s's arcs. *)
    let ns = ref 0 in
    aoff.(0) <- 0;
    for i = 0 to (2 * na) - 1 do
      let w = if i < na then au.(i) else av.(i - na) in
      if amark.(w) <> st then begin
        amark.(w) <- st;
        aslot.(w) <- !ns;
        aoff.(!ns + 1) <- 0;
        incr ns
      end;
      let sl = aslot.(w) in
      aoff.(sl + 1) <- aoff.(sl + 1) + 1
    done;
    for sl = 1 to !ns do
      aoff.(sl) <- aoff.(sl) + aoff.(sl - 1)
    done;
    (* Fill with aoff.(s) as the cursor of slot s, then shift back. *)
    let put w x =
      let sl = aslot.(w) in
      aadj.(aoff.(sl)) <- x;
      aoff.(sl) <- aoff.(sl) + 1
    in
    for e = 0 to na - 1 do
      put au.(e) av.(e);
      put av.(e) au.(e)
    done;
    for sl = !ns downto 1 do
      aoff.(sl) <- aoff.(sl - 1)
    done;
    aoff.(0) <- 0
  end

let[@brokercheck.noalloc] stamp_skips ws w =
  ws.ekey <- ws.ekey + 1;
  let k = ws.ekey and s = Array.unsafe_get ws.aslot w in
  for p = Array.unsafe_get ws.aoff s to Array.unsafe_get ws.aoff (s + 1) - 1 do
    Array.unsafe_set ws.excl (Array.unsafe_get ws.aadj p) k
  done;
  k

(* Key under which a scan of [w]'s segment must skip the neighbours
   stamped with it in [excl] — [w]'s announced arcs — or -1 when [w]
   has none, so the scan checks nothing. [amark] and [astamp] are the
   workspace's, read once per kernel; a negative [astamp] means the
   burst announced nothing, and saves the lookup. *)
let[@inline] skip_key ws amark astamp w =
  if astamp < 0 || Array.unsafe_get amark w <> astamp then -1 else stamp_skips ws w

(* Outcomes of a lane's repair kernels. *)
let repaired = 0
let too_deep = 1  (* a vertex lands past [max_depth]: re-sweep the batch *)
let over_budget = 2  (* the repair outgrew a BFS: {!relabel} the lane *)

(* A lane's repair gives up once it has scanned 1 / [budget_share] of
   the view's arcs and vertices. A repair step costs a few BFS steps,
   so past about half the graph one BFS of the lane is cheaper; on the
   smoke-scale bench, 2 and 1 measure alike and 4 is a few percent
   slower. *)
let budget_share = 2

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
    Msbfs.with_workspace @@ fun ws ->
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

(* Re-seat the [na] vertices [affected.(0 .. na - 1)] that the removal
   phase found, each from its [dist] hint (see [find_affected]) or
   else from the best depth its unaffected neighbours offer (an
   unreached one offers [inf]), then run a unit-weight Dijkstra
   (depth-sorted seeds merged with a FIFO) over the links between
   affected vertices alone. Vertices left unreached become [unreached].
   Returns [too_deep], leaving the row as it was, when a vertex would
   land deeper than [max_depth]. *)
let[@brokercheck.noalloc] reseat ws vw row na =
  let epoch = ws.epoch and amark = ws.amark in
  let astamp = if ws.adds then ws.astamp else -1 in
  let off = vw.View.off and adj = vw.View.adj in
  let ov = vw.View.overlaid in
  let dirty = vw.View.dirty and xoff = vw.View.xoff and xadj = vw.View.xadj in
  let aff = ws.aff and fin = ws.fin and dist = ws.dist and excl = ws.excl in
  let affected = ws.affected and queue = ws.queue and qdepth = ws.qdepth in
  let seeds = ws.seeds and sdepth = ws.sdepth in
  let ehead = ws.ehead and eto = ws.eto and enext = ws.enext in
  let best = ref inf and j = ref 0 in
  for i = 0 to na - 1 do
    let w = Array.unsafe_get affected i in
    if Array.unsafe_get dist w < 0 then begin
      let dw = ov && Array.unsafe_get dirty w in
      let a = if dw then xadj else adj in
      let lo = if dw then Array.unsafe_get xoff w else Array.unsafe_get off w in
      let hi = if dw then Array.unsafe_get xoff (w + 1) else Array.unsafe_get off (w + 1) in
      let key = skip_key ws amark astamp w in
      (* No unaffected neighbour sits a level up, so one level down is
         the best any can offer. *)
      let least = depth_at row w + 1 in
      best := inf;
      j := lo;
      while !j < hi && !best > least do
        let x = Array.unsafe_get a !j in
        if Array.unsafe_get aff x <> epoch && (key < 0 || Array.unsafe_get excl x <> key)
        then begin
          let dx = depth_at row x + 1 in
          if dx < !best then best := dx
        end;
        incr j
      done;
      Array.unsafe_set dist w !best
    end;
    Array.unsafe_set seeds i w;
    Array.unsafe_set sdepth i (Array.unsafe_get dist w);
    touch ws row w
  done;
  sort_seeds ws na;
  let si = ref 0 and qh = ref 0 and qt = ref 0 and ok = ref true and e = ref 0 in
  while !ok && (!qh < !qt || (!si < na && Array.unsafe_get sdepth !si < inf)) do
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
        e := Array.unsafe_get ehead w;
        while !e >= 0 do
          let y = Array.unsafe_get eto !e in
          if Array.unsafe_get fin y <> epoch && d + 1 < Array.unsafe_get dist y then begin
            Array.unsafe_set dist y (d + 1);
            Array.unsafe_set queue !qt y;
            Array.unsafe_set qdepth !qt (d + 1);
            incr qt
          end;
          e := Array.unsafe_get enext !e
        done
      end
  done;
  if !ok then begin
    for i = 0 to na - 1 do
      let w = Array.unsafe_get affected i in
      let d = if Array.unsafe_get fin w = epoch then Array.unsafe_get dist w else unreached in
      Bytes.unsafe_set row w (Char.unsafe_chr d)
    done;
    repaired
  end
  else too_deep

(* Removal phase of one lane over old - R, the old edges minus the
   withdrawn set R (edges [ru.(e)]-[rv.(e)], e < nr), read as the new
   edge set [vw] with the announced arcs skipped (see {!skip_key}).
   [row] holds the lane's old depths, so neighbours in old - R differ
   by at most one in it. A vertex at depth k keeps it iff some
   neighbour sits at k - 1 and keeps its own; the only vertices that
   can fail the test are the deeper endpoints of withdrawn
   shortest-path arcs (|d(u) - d(v)| = 1) and, transitively, the
   children (depth k + 1) of vertices that failed it. Candidates are
   decided in depth order, each against final verdicts one level up,
   and all of a level's candidates are known before the level starts.
   A vertex that fails is scanned once more to queue its children, to
   link it to its affected neighbours, and to look for a non-candidate
   neighbour at its own depth: that one keeps its depth, so [dist]
   notes k + 1, the least the failed vertex can get, and -1 otherwise.
   [find_affected] decides the [nseeds] sorted seeds and the candidates
   they lead to. It returns [over_budget], before the row is touched,
   when the lane's [work] passes its budget or its links would overflow
   [eto], else the outcome of {!reseat}.
   Segments are read inline from the view record, as
   [Dominating.search] does. *)
let[@brokercheck.noalloc] find_affected ws vw row nseeds =
  let epoch = ws.epoch and amark = ws.amark in
  let astamp = if ws.adds then ws.astamp else -1 in
  let off = vw.View.off and adj = vw.View.adj in
  let ov = vw.View.overlaid in
  let dirty = vw.View.dirty and xoff = vw.View.xoff and xadj = vw.View.xadj in
  let cand = ws.cand and aff = ws.aff and dist = ws.dist and excl = ws.excl in
  let affected = ws.affected and queue = ws.queue and qdepth = ws.qdepth in
  let seeds = ws.seeds and sdepth = ws.sdepth in
  let ehead = ws.ehead and eto = ws.eto and enext = ws.enext in
  let budget = ws.budget and work = ref ws.work in
  sort_seeds ws nseeds;
  let si = ref 0 and qh = ref 0 and qt = ref 0 and n_aff = ref 0 in
  let j = ref 0 and hi = ref 0 and found = ref false in
  let ne = ref 0 and sib = ref false and room = ref true in
  while (!si < nseeds || !qh < !qt) && !work <= budget && !room do
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
    let key = skip_key ws amark astamp w in
    j := lo;
    found := false;
    while !j < !hi && not !found do
      let x = Array.unsafe_get a !j in
      if depth_at row x = d - 1 && Array.unsafe_get aff x <> epoch
         && (key < 0 || Array.unsafe_get excl x <> key)
      then found := true;
      incr j
    done;
    work := !work + (!j - lo) + 1;
    (* The rescan links at most two entries per arc. *)
    if (not !found) && !ne + (2 * (!hi - lo)) > Array.length eto then room := false
    else if not !found then begin
      work := !work + (!hi - lo);
      Array.unsafe_set aff w epoch;
      Array.unsafe_set affected !n_aff w;
      incr n_aff;
      Array.unsafe_set ehead w (-1);
      sib := false;
      for i = lo to !hi - 1 do
        let y = Array.unsafe_get a i in
        if key < 0 || Array.unsafe_get excl y <> key then begin
          let dy = depth_at row y in
          if dy = d + 1 then begin
            if d < max_depth && Array.unsafe_get cand y <> epoch then begin
              Array.unsafe_set cand y epoch;
              Array.unsafe_set queue !qt y;
              Array.unsafe_set qdepth !qt (d + 1);
              incr qt
            end
          end
          else if dy = d && Array.unsafe_get cand y <> epoch then sib := true
          else if dy = d - 1 || (dy = d && Array.unsafe_get aff y = epoch) then begin
            (* Every neighbour one level up failed, or [w] would not
               have; a same-level one may have failed before [w]. *)
            let e = !ne in
            Array.unsafe_set eto e y;
            Array.unsafe_set enext e (Array.unsafe_get ehead w);
            Array.unsafe_set ehead w e;
            Array.unsafe_set eto (e + 1) w;
            Array.unsafe_set enext (e + 1) (Array.unsafe_get ehead y);
            Array.unsafe_set ehead y (e + 1);
            ne := e + 2
          end
        end
      done;
      Array.unsafe_set dist w (if !sib then d + 1 else -1)
    end
  done;
  ws.work <- !work;
  if (not !room) || !work > budget then over_budget
  else if !n_aff = 0 then repaired
  else reseat ws vw row !n_aff

(* Entry of the removal phase: the seeds are the deeper endpoints of
   the withdrawn shortest-path arcs; a lane with none is done. *)
let[@brokercheck.noalloc] repair_removals ws vw row ru rv nr =
  let epoch = ws.epoch and cand = ws.cand in
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
  if !k = 0 then repaired else find_affected ws vw row !k

(* Add phase of one lane over [vw] = the new edge set, from the depths
   the removal phase left in [row]: decrease-only propagation from the
   endpoints of the announced set A. Each added edge proposes d(x) + 1
   to its far endpoint; proposals are applied in depth order (sorted
   seeds merged with a FIFO of lowered vertices), so every vertex is
   expanded once, at its final depth. [propagate_adds] applies the
   [nseeds] proposals [repair_adds] collected. Returns [too_deep], with the row
   partly written, when a vertex would land deeper than [max_depth], and
   [over_budget], likewise, when the lane's [work] passes its budget. *)
let[@brokercheck.noalloc] propagate_adds ws vw row nseeds =
  let off = vw.View.off and adj = vw.View.adj in
  let ov = vw.View.overlaid in
  let dirty = vw.View.dirty and xoff = vw.View.xoff and xadj = vw.View.xadj in
  let queue = ws.queue and qdepth = ws.qdepth in
  let seeds = ws.seeds and sdepth = ws.sdepth in
  sort_seeds ws nseeds;
  let budget = ws.budget and work = ref ws.work in
  let si = ref 0 and qh = ref 0 and qt = ref 0 and ok = ref true in
  while !ok && (!si < nseeds || !qh < !qt) && !work <= budget do
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
      work := !work + (hi - lo) + 1;
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
  ws.work <- !work;
  if not !ok then too_deep else if !work > budget then over_budget else repaired

let[@brokercheck.noalloc] repair_adds ws vw row au av na =
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
  if !k = 0 then repaired else propagate_adds ws vw row !k

(* Move batch [b]'s tally count of one pair from depth [o] to [d]. *)
let[@inline] move hist reached b l_max o d =
  if o < unreached then begin
    reached.(b) <- reached.(b) - 1;
    if o <= l_max then hist.(o) <- hist.(o) - 1
  end;
  if d < unreached then begin
    reached.(b) <- reached.(b) + 1;
    if d <= l_max then hist.(d) <- hist.(d) + 1
  end

(* Move one tally count per depth that changed in the lane, old depth
   out and new depth in; returns the number of changed depths. *)
let[@brokercheck.noalloc] settle ws row hist reached b l_max =
  let changed = ref 0 in
  for i = 0 to ws.n_touched - 1 do
    let w = Array.unsafe_get ws.touched i in
    let o = Array.unsafe_get ws.orig w and d = depth_at row w in
    if o <> d then begin
      incr changed;
      move hist reached b l_max o d
    end
  done;
  !changed

(* Recompute the lane of source [src] by a BFS over [vw], the new edge
   set, once its repair ran [over_budget]: the old depth of a vertex is
   [orig] where the repair already touched it and the row elsewhere.
   Returns the number of changed depths, or -1 when a vertex lands past
   [max_depth]. *)
let relabel ws vw row hist reached b l_max src =
  Bfs.run_view ws.bfs vw ~max_depth:(max_depth + 1) src;
  if Bfs.max_level ws.bfs > max_depth then -1
  else begin
    let changed = ref 0 in
    for v = 0 to View.n vw - 1 do
      let o = if ws.seen.(v) = ws.epoch then ws.orig.(v) else depth_at row v in
      let d = Bfs.distance ws.bfs v in
      let d = if d < 0 then unreached else d in
      if o <> d then begin
        incr changed;
        move hist reached b l_max o d
      end;
      Bytes.unsafe_set row v (Char.unsafe_chr d)
    done;
    !changed
  end

(* Net effect of the burst's effective ops, the pairs [lu.(i)]-[lv.(i)]
   (announced when [ladd.(i)]), i < nl, in burst order: the first op on
   a pair tells its old state, the overlay its new one, so ops that
   cancel within the burst drop out. Returns the removed and the added
   endpoints, each pair in first-op order. *)
let net_changes t lu lv ladd nl =
  let keys = Array.init nl (fun i -> (min lu.(i) lv.(i) * t.n) + max lu.(i) lv.(i)) in
  let idx = Array.init nl Fun.id in
  Array.stable_sort (fun i j -> Int.compare keys.(i) keys.(j)) idx;
  let first = Array.make nl false in
  Array.iteri (fun r i -> first.(i) <- r = 0 || keys.(idx.(r - 1)) <> keys.(i)) idx;
  let gone = Array.make nl false and came = Array.make nl false in
  let nr = ref 0 and na = ref 0 in
  for i = 0 to nl - 1 do
    if first.(i) then begin
      let now = Delta.mem_edge t.pdelta lu.(i) lv.(i) in
      if ladd.(i) && now then begin
        came.(i) <- true;
        incr na
      end
      else if (not ladd.(i)) && not now then begin
        gone.(i) <- true;
        incr nr
      end
    end
  done;
  let pick keep k =
    let u = Array.make k 0 and v = Array.make k 0 and j = ref 0 in
    for i = 0 to nl - 1 do
      if keep.(i) then begin
        u.(!j) <- lu.(i);
        v.(!j) <- lv.(i);
        incr j
      end
    done;
    (u, v)
  in
  let ru, rv = pick gone !nr and au, av = pick came !na in
  (ru, rv, au, av)

let apply t ops =
  let applied = ref 0 and noops = ref 0 and ignored = ref 0 in
  (* The effective ops, in burst order. *)
  let nops = Array.length ops in
  let lu = Array.make nops 0 and lv = Array.make nops 0 and ladd = Array.make nops false in
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
          lu.(!applied) <- u;
          lv.(!applied) <- v;
          ladd.(!applied) <- add;
          incr applied
        end
        else incr noops
      end)
    ops;
  Obs.Metrics.incr m_applies;
  Obs.Metrics.add m_ops_applied !applied;
  Obs.Metrics.add m_ops_noop !noops;
  Obs.Metrics.add m_ops_ignored !ignored;
  let ru, rv, au, av = net_changes t lu lv ladd !applied in
  let nr = Array.length ru and na = Array.length au in
  let lanes_repaired = ref 0 and pairs_repaired = ref 0 and lanes_relabelled = ref 0 in
  let resweep = ref [] and nre = ref 0 and resweep_lanes = ref 0 in
  if nr + na > 0 then begin
    (* Both phases read the view of the new edge set: the removal
       phase skips the arcs of A, which leaves old - R. *)
    let nw = Delta.view t.pdelta in
    let ws = t.ws in
    ensure_seeds ws (2 * na);
    (* Only the removal phase reads the index. *)
    index_added ws au av (if nr > 0 then na else 0);
    ws.budget <- (View.arcs nw + View.n nw) / budget_share;
    let nsrc = Array.length t.sources in
    for b = t.nbatch - 1 downto 0 do
      let lo = b * lanes in
      let hi = min (lo + lanes) nsrc in
      let ok = ref (not t.deep.(b)) in
      let lanes_b = ref 0 and pairs_b = ref 0 and relabelled_b = ref 0 in
      let i = ref lo in
      while !ok && !i < hi do
        let row = t.depth.(!i) in
        ws.epoch <- ws.epoch + 1;
        ws.n_touched <- 0;
        ws.work <- 0;
        let r = if nr = 0 then repaired else repair_removals ws nw row ru rv nr in
        let r = if r = repaired && na > 0 then repair_adds ws nw row au av na else r in
        let c =
          if r = repaired then settle ws row t.hists.(b) t.reached b t.l_max
          else if r = over_budget then begin
            incr relabelled_b;
            relabel ws nw row t.hists.(b) t.reached b t.l_max t.sources.(!i)
          end
          else -1
        in
        ok := c >= 0;
        if c > 0 then begin
          incr lanes_b;
          pairs_b := !pairs_b + c
        end;
        incr i
      done;
      if !ok then begin
        lanes_repaired := !lanes_repaired + !lanes_b;
        pairs_repaired := !pairs_repaired + !pairs_b;
        lanes_relabelled := !lanes_relabelled + !relabelled_b
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
  Obs.Metrics.add m_lanes_relabelled !lanes_relabelled;
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
