module Bitset = Broker_util.Bitset
module Obs = Broker_obs

let lanes = Bitset.bits_per_word

(* Word arrays, indexed by vertex, all zero outside a run:

     [seen]  — bits of lanes whose BFS has settled the vertex.
     [front] — bits newly settled at the vertex on the *previous* level
               (the frontier being expanded).
     [nxt]   — bits being settled at the vertex on the level under
               construction.

   A zero word means "nothing", so no stamp guards a read and each arc
   costs one load of the neighbor's word. The run keeps the invariant
   itself: it clears the last run's [seen] words through [touched] when
   it starts (so queries still answer for the last run until then), it
   zeroes each expanded level's [front] words through [q_cur] before
   the swap that makes [front] the next level's [nxt], and it zeroes the
   leftover frontier when [max_depth] stops it. *)
type workspace = {
  mutable cap : int;  (* arrays below are sized for [cap] vertices *)
  mutable seen : int array;
  mutable front : int array;
  mutable nxt : int array;
  mutable q_cur : int array;  (* vertices with a nonzero front word *)
  mutable q_next : int array;  (* vertices gaining bits this level *)
  mutable touched : int array;  (* distinct vertices settled this batch *)
  mutable n_touched : int;
  mutable levels : int array;  (* levels.(d) = (lane,vertex) pairs at depth d *)
  mutable max_level : int;
  mutable pairs : int;  (* settled pairs at depth >= 1 *)
  mutable len : int;  (* lanes active in the last run *)
}

let workspace () =
  {
    cap = 0;
    seen = [||];
    front = [||];
    nxt = [||];
    q_cur = [||];
    q_next = [||];
    touched = [||];
    n_touched = 0;
    levels = [||];
    max_level = 0;
    pairs = 0;
    len = 0;
  }

(* Workspaces outlive the calls that use them: [with_workspace] borrows
   one from this lock-free free list and puts it back when its body
   returns, so steady-state callers allocate no sweep arrays. A
   workspace is held by one caller at a time; the list only ever grows
   to the number of callers that ran at once. Pushes cons a fresh cell,
   so a compare-and-set never mistakes a recycled head for the one it
   read. A body that raises drops its workspace instead of returning a
   possibly half-swept one. *)
let pool : workspace list Atomic.t = Atomic.make []

let rec borrow () =
  match Atomic.get pool with
  | [] -> workspace ()
  | ws :: rest as cur ->
      if Atomic.compare_and_set pool cur rest then ws else borrow ()

let rec give_back ws =
  let cur = Atomic.get pool in
  if not (Atomic.compare_and_set pool cur (ws :: cur)) then give_back ws

let with_workspace f =
  let ws = borrow () in
  let x = f ws in
  give_back ws;
  x

(* Fresh arrays are all zero, which is the between-runs state. *)
let ensure ws n =
  if ws.cap < n then begin
    ws.cap <- n;
    ws.seen <- Array.make n 0;
    ws.front <- Array.make n 0;
    ws.nxt <- Array.make n 0;
    ws.q_cur <- Array.make n 0;
    ws.q_next <- Array.make n 0;
    ws.touched <- Array.make n 0;
    ws.levels <- Array.make (n + 1) 0
  end

(* Same Beamer-style switching thresholds as the scalar engine (Bfs):
   expand bottom-up once the frontier's out-arcs exceed 1/alpha of the
   arcs still incident to untouched vertices, fall back top-down when the
   frontier shrinks below n/beta vertices. Both directions settle the
   same bits at the same depths, so every count below is independent of
   the heuristic. *)
let alpha = 14
let beta = 24

(* Depth rows hold one byte per vertex: depths up to 254, and 255 for
   every vertex the lane did not reach at a recordable depth. *)
let max_recorded_depth = 254
let unreached = '\255'

(* Observability (Broker_obs): all counters are commutative int sums over
   deterministically composed batches, so totals are REPRO_DOMAINS-
   independent and diffable, exactly like the bfs.* family. *)
let m_batches = Obs.Metrics.counter "msbfs.batches"
let m_lanes = Obs.Metrics.counter "msbfs.lanes"
let m_sweeps = Obs.Metrics.counter "msbfs.sweeps"
let m_sweeps_td = Obs.Metrics.counter "msbfs.sweeps.top_down"
let m_sweeps_bu = Obs.Metrics.counter "msbfs.sweeps.bottom_up"
let m_active_words = Obs.Metrics.counter "msbfs.active_words"
let m_frontier_bits = Obs.Metrics.counter "msbfs.frontier_bits"
let m_settled_pairs = Obs.Metrics.counter "msbfs.settled_pairs"
let h_frontier_words = Obs.Metrics.histogram "msbfs.frontier_words"
let t_run = Obs.Trace.scope "msbfs.run"
let t_sweep_td = Obs.Trace.scope "msbfs.sweep.top_down"
let t_sweep_bu = Obs.Trace.scope "msbfs.sweep.bottom_up"

(* The sweep is the whole point of the module: one pass over the frontier
   advances up to [lanes] BFS traversals with three word ops per arc
   (AND-NOT against [seen], OR into [seen] and [nxt]); per-level pair
   counts come from one popcount per frontier word instead of any
   per-bit loop. Checked [@brokercheck.noalloc]: all loop scratch is
   hoisted refs, and per-arc work is pure int ops. *)
let[@brokercheck.noalloc] run_view ws vw ?(max_depth = max_int) ?depths
    sources ~lo ~len =
  let n = vw.View.n in
  if len < 1 || len > lanes then invalid_arg "Msbfs: batch size out of range";
  if lo < 0 || len > Array.length sources - lo then
    invalid_arg "Msbfs: source range out of bounds";
  (* Validate the whole batch before touching any workspace state. *)
  for b = 0 to len - 1 do
    let s = Array.unsafe_get sources (lo + b) in
    if s < 0 || s >= n then invalid_arg "Msbfs: source out of range"
  done;
  (match depths with
  | None -> ()
  | Some rows ->
      if Array.length rows - lo < len then
        invalid_arg "Msbfs: depth rows shorter than the batch";
      for b = 0 to len - 1 do
        if Bytes.length (Array.unsafe_get rows (lo + b)) < n then
          invalid_arg "Msbfs: depth row shorter than the graph"
      done;
      for b = 0 to len - 1 do
        let row = Array.unsafe_get rows (lo + b) in
        Bytes.fill row 0 n unreached;
        Bytes.unsafe_set row (Array.unsafe_get sources (lo + b)) '\000'
      done);
  (* Clear the last run's settled words: [touched] lists every vertex
     whose [seen] word it set, so [seen] is all zero again. *)
  let old_touched = ws.touched and old_seen = ws.seen in
  for i = 0 to ws.n_touched - 1 do
    Array.unsafe_set old_seen (Array.unsafe_get old_touched i) 0
  done;
  ws.n_touched <- 0;
  ensure ws n;
  (* Base-or-overlay segment select, exactly as in {!Bfs.run_view}: for
     base views [ov] is false and the loops read the bare CSR. *)
  let off = vw.View.off and adj = vw.View.adj in
  let ov = vw.View.overlaid in
  let dirty = vw.View.dirty and xoff = vw.View.xoff and xadj = vw.View.xadj in
  let seen = ws.seen in
  let touched = ws.touched and levels = ws.levels in
  let q_cur = ref ws.q_cur and q_next = ref ws.q_next in
  let front = ref ws.front and nxt = ref ws.nxt in
  let mask = if len >= lanes then -1 else (1 lsl len) - 1 in
  ws.max_level <- 0;
  ws.pairs <- 0;
  ws.len <- len;
  levels.(0) <- len;
  (* Seed: lane [b] starts at [sources.(lo + b)]. Duplicate sources are
     distinct lanes sharing a vertex, so the frontier queue dedups on a
     zero front word while the words accumulate one bit per lane. *)
  let cur_n = ref 0 in
  let scout = ref 0 in
  let edges_rest = ref vw.View.arcs in
  let fr0 = !front and q0 = !q_cur in
  for b = 0 to len - 1 do
    let s = Array.unsafe_get sources (lo + b) in
    let bit = 1 lsl b in
    let sv = Array.unsafe_get seen s in
    if sv = 0 then begin
      Array.unsafe_set touched ws.n_touched s;
      ws.n_touched <- ws.n_touched + 1;
      let deg =
        if ov && Array.unsafe_get dirty s then
          Array.unsafe_get xoff (s + 1) - Array.unsafe_get xoff s
        else Array.unsafe_get off (s + 1) - Array.unsafe_get off s
      in
      edges_rest := !edges_rest - deg;
      scout := !scout + deg
    end;
    Array.unsafe_set seen s (sv lor bit);
    let fs = Array.unsafe_get fr0 s in
    if fs = 0 then begin
      Array.unsafe_set q0 !cur_n s;
      cur_n := !cur_n + 1
    end;
    Array.unsafe_set fr0 s (fs lor bit)
  done;
  let bottom_up = ref false in
  let d = ref 0 in
  let tr0 = Obs.Trace.enter () in
  let sweeps_td = ref 0 and sweeps_bu = ref 0 in
  let words_touched = ref 0 and bits_front = ref 0 in
  (* Loop scratch, hoisted: the sweep body allocates nothing per level,
     per frontier word, or per arc. *)
  let next_n = ref 0 and next_scout = ref 0 and pc = ref 0 in
  let probe = ref 0 and acc = ref 0 and bits = ref 0 in
  while !cur_n > 0 && !d < max_depth do
    if !bottom_up then begin
      if !cur_n * beta < n then bottom_up := false
    end
    else if !scout * alpha > !edges_rest then bottom_up := true;
    if Obs.Control.enabled () then begin
      if !bottom_up then incr sweeps_bu else incr sweeps_td;
      words_touched := !words_touched + !cur_n;
      bits_front := !bits_front + levels.(!d);
      Obs.Metrics.observe h_frontier_words !cur_n;
      Obs.Trace.sample (if !bottom_up then t_sweep_bu else t_sweep_td) !cur_n
    end;
    let dn = !d + 1 in
    next_n := 0;
    next_scout := 0;
    let fr = !front and nx = !nxt in
    let q = !q_cur and nq = !q_next in
    if !bottom_up then
      (* Bottom-up: every vertex still missing bits ORs its neighbors'
         frontier words until the missing bits are covered. With many
         lanes the early exit fires less often than in the scalar
         engine, but on exploding levels the frontier holds almost every
         vertex and one sequential pass still beats expanding it. *)
      for v = 0 to n - 1 do
        let sv = Array.unsafe_get seen v in
        let miss = mask land lnot sv in
        if miss <> 0 then begin
          let dv = ov && Array.unsafe_get dirty v in
          let a = if dv then xadj else adj in
          let lo =
            if dv then Array.unsafe_get xoff v else Array.unsafe_get off v
          in
          let hi =
            if dv then Array.unsafe_get xoff (v + 1)
            else Array.unsafe_get off (v + 1)
          in
          probe := lo;
          acc := 0;
          while !probe < hi && miss land lnot !acc <> 0 do
            acc := !acc lor Array.unsafe_get fr (Array.unsafe_get a !probe);
            incr probe
          done;
          let add = !acc land miss in
          if add <> 0 then begin
            if sv = 0 then begin
              Array.unsafe_set touched ws.n_touched v;
              ws.n_touched <- ws.n_touched + 1;
              edges_rest := !edges_rest - (hi - lo)
            end;
            Array.unsafe_set seen v (sv lor add);
            Array.unsafe_set nx v add;
            Array.unsafe_set nq !next_n v;
            next_n := !next_n + 1;
            next_scout := !next_scout + (hi - lo)
          end
        end
      done
    else
      for i = 0 to !cur_n - 1 do
        let u = Array.unsafe_get q i in
        let fu = Array.unsafe_get fr u in
        let du = ov && Array.unsafe_get dirty u in
        let a = if du then xadj else adj in
        let jlo =
          if du then Array.unsafe_get xoff u else Array.unsafe_get off u
        in
        let jhi =
          if du then Array.unsafe_get xoff (u + 1)
          else Array.unsafe_get off (u + 1)
        in
        for j = jlo to jhi - 1 do
          let v = Array.unsafe_get a j in
          let sv = Array.unsafe_get seen v in
          let add = fu land lnot sv in
          if add <> 0 then begin
            let dv = ov && Array.unsafe_get dirty v in
            let deg_v =
              if dv then
                Array.unsafe_get xoff (v + 1) - Array.unsafe_get xoff v
              else Array.unsafe_get off (v + 1) - Array.unsafe_get off v
            in
            if sv = 0 then begin
              Array.unsafe_set touched ws.n_touched v;
              ws.n_touched <- ws.n_touched + 1;
              edges_rest := !edges_rest - deg_v
            end;
            Array.unsafe_set seen v (sv lor add);
            let xv = Array.unsafe_get nx v in
            if xv = 0 then begin
              Array.unsafe_set nq !next_n v;
              next_n := !next_n + 1;
              next_scout := !next_scout + deg_v
            end;
            Array.unsafe_set nx v (xv lor add)
          end
        done
      done;
    (* The expanded level is done with: zero its front words, so the
       array swapped in as the next level's [nxt] is all zero. *)
    for i = 0 to !cur_n - 1 do
      Array.unsafe_set fr (Array.unsafe_get q i) 0
    done;
    (* Per-level pair count: one popcount per vertex that gained bits —
       [nx] holds exactly the first-arrival bits of this level. *)
    pc := 0;
    for i = 0 to !next_n - 1 do
      pc := !pc + Bitset.popcount (Array.unsafe_get nx (Array.unsafe_get nq i))
    done;
    if !next_n > 0 then begin
      ws.max_level <- dn;
      levels.(dn) <- !pc;
      ws.pairs <- ws.pairs + !pc
    end;
    (* Depth recording: [nx] holds exactly this level's first-arrival
       bits, so each one is written once, to its lane's row. *)
    (match depths with
    | Some rows when dn <= max_recorded_depth ->
        let c = Char.unsafe_chr dn in
        for i = 0 to !next_n - 1 do
          let v = Array.unsafe_get nq i in
          bits := Array.unsafe_get nx v;
          while !bits <> 0 do
            let b = Bitset.popcount ((!bits land - !bits) - 1) in
            Bytes.unsafe_set (Array.unsafe_get rows (lo + b)) v c;
            bits := !bits land (!bits - 1)
          done
        done
    | _ -> ());
    (* Swap frontier and next (words and queues) for the next level. *)
    front := nx;
    nxt := fr;
    q_cur := nq;
    q_next := q;
    cur_n := !next_n;
    scout := !next_scout;
    d := dn
  done;
  (* Stopped by [max_depth] with a live frontier: zero it, so every
     front word is zero between runs. *)
  let fr = !front and q = !q_cur in
  for i = 0 to !cur_n - 1 do
    Array.unsafe_set fr (Array.unsafe_get q i) 0
  done;
  ws.front <- fr;
  ws.nxt <- !nxt;
  ws.q_cur <- q;
  ws.q_next <- !q_next;
  if Obs.Control.enabled () then begin
    Obs.Metrics.incr m_batches;
    Obs.Metrics.add m_lanes len;
    Obs.Metrics.add m_sweeps (!sweeps_td + !sweeps_bu);
    Obs.Metrics.add m_sweeps_td !sweeps_td;
    Obs.Metrics.add m_sweeps_bu !sweeps_bu;
    Obs.Metrics.add m_active_words !words_touched;
    Obs.Metrics.add m_frontier_bits !bits_front;
    Obs.Metrics.add m_settled_pairs ws.pairs
  end;
  Obs.Trace.leave t_run tr0

(* Static-graph entry point: the view record is the only setup
   allocation, built once before the sweeps. *)
let[@brokercheck.noalloc] run ws g ?max_depth sources ~lo ~len =
  run_view ws (View.of_graph g) ?max_depth sources ~lo ~len

let batch_lanes ws = ws.len
let max_level ws = ws.max_level
let reached_pairs ws = ws.pairs

let level_pairs ws d =
  if d < 0 || d > ws.max_level then
    invalid_arg "Msbfs.level_pairs: level out of range";
  ws.levels.(d)

let settled_bits ws v =
  if v < 0 || v >= ws.cap then
    invalid_arg "Msbfs.settled_bits: vertex out of range";
  ws.seen.(v)

let lane_counts_into ws ~keep out =
  if Array.length out < ws.len then
    invalid_arg "Msbfs.lane_counts_into: output shorter than the batch";
  Array.fill out 0 ws.len 0;
  let seen = ws.seen and touched = ws.touched in
  for i = 0 to ws.n_touched - 1 do
    let v = Array.unsafe_get touched i in
    if keep v then begin
      (* Lowest-set-bit extraction over the settled word: cost is one
         step per (lane, vertex) pair actually settled. *)
      let w = ref (Array.unsafe_get seen v) in
      while !w <> 0 do
        let low = !w land - !w in
        let b = Bitset.popcount (low - 1) in
        Array.unsafe_set out b (Array.unsafe_get out b + 1);
        w := !w land (!w - 1)
      done
    end
  done
