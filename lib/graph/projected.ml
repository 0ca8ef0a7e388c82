module B = Broker_util.Bitset
module Obs = Broker_obs

type t = { graph : Graph.t; brokers : B.t; broker_count : int }

(* Caller-owned output buffers, grown on demand and never shrunk: [off]
   to n + 1 entries, [adj] to the viewed graph's arc count (an upper
   bound on the kept arcs, so the fill never needs a counting pass), and
   [mem] to one byte per vertex (1 = broker). *)
type scratch = {
  mutable off : int array;
  mutable adj : int array;
  mutable mem : Bytes.t;
  mutable broker_count : int;
}

let scratch () = { off = [||]; adj = [||]; mem = Bytes.empty; broker_count = 0 }

let m_builds = Obs.Metrics.counter "projected.builds"
let m_arcs_kept = Obs.Metrics.counter "projected.arcs_kept"
let m_broker_verts = Obs.Metrics.counter "projected.broker_vertices"
let t_build = Obs.Trace.scope "projected.build"

let ensure s ~n ~arcs =
  if Array.length s.off < n + 1 then s.off <- Array.make (n + 1) 0;
  if Array.length s.adj < arcs then s.adj <- Array.make arcs 0;
  if Bytes.length s.mem < n then s.mem <- Bytes.make n '\000'

(* One pass over the adjacency with a running write cursor: a broker
   keeps its whole (already sorted) segment; a non-broker keeps exactly
   its broker neighbors. Filtering a sorted, duplicate-free, symmetric
   CSR with a symmetric edge predicate preserves all of those
   invariants, so the result is wrapped without re-normalizing. The
   non-broker filter is branch-free: every neighbor is written at the
   cursor, which advances by its membership byte. The write index never
   passes the arcs read so far, so [adj] sized to the view's arc count
   suffices. Adjacency is read through the base-or-overlay segment
   selector of {!View}, so a {!Delta} overlay projects without
   compacting first. Checked [@brokercheck.noalloc]: the buffer growth
   and the returned view record are the O(1) setup around the loops. *)
let[@brokercheck.noalloc] project_into s vw ~is_broker =
  let tr0 = Obs.Trace.enter () in
  let n = vw.View.n in
  ensure s ~n ~arcs:vw.View.arcs;
  let off = vw.View.off and adj = vw.View.adj in
  let ov = vw.View.overlaid in
  let dirty = vw.View.dirty and xoff = vw.View.xoff and xadj = vw.View.xadj in
  let mem = s.mem and poff = s.off and padj = s.adj in
  let broker_count = ref 0 in
  for v = 0 to n - 1 do
    if is_broker v then begin
      Bytes.unsafe_set mem v '\001';
      incr broker_count
    end
    else Bytes.unsafe_set mem v '\000'
  done;
  let w = ref 0 in
  Array.unsafe_set poff 0 0;
  for u = 0 to n - 1 do
    let du = ov && Array.unsafe_get dirty u in
    let a = if du then xadj else adj in
    let lo = if du then Array.unsafe_get xoff u else Array.unsafe_get off u in
    let hi =
      if du then Array.unsafe_get xoff (u + 1)
      else Array.unsafe_get off (u + 1)
    in
    if Bytes.unsafe_get mem u <> '\000' then begin
      Array.blit a lo padj !w (hi - lo);
      w := !w + (hi - lo)
    end
    else
      for i = lo to hi - 1 do
        let v = Array.unsafe_get a i in
        Array.unsafe_set padj !w v;
        w := !w + Char.code (Bytes.unsafe_get mem v)
      done;
    Array.unsafe_set poff (u + 1) !w
  done;
  s.broker_count <- !broker_count;
  if Obs.Control.enabled () then begin
    Obs.Metrics.incr m_builds;
    Obs.Metrics.add m_arcs_kept !w;
    Obs.Metrics.add m_broker_verts !broker_count
  end;
  Obs.Trace.leave t_build tr0;
  View.of_csr ~n ~arcs:!w ~off:poff ~adj:padj

(* One scratch per domain: [project_view] copies out of it at once, and
   [eval]-style callers read the returned view before their next
   projection on the same domain. *)
let local_key = Domain.DLS.new_key scratch
let local () = Domain.DLS.get local_key

let project_view vw ~is_broker =
  let s = local () in
  let pv = project_into s vw ~is_broker in
  let n = pv.View.n in
  let brokers = B.create n in
  for v = 0 to n - 1 do
    if Bytes.unsafe_get s.mem v <> '\000' then B.unsafe_add brokers v
  done;
  {
    graph =
      Graph.of_csr_unchecked ~n ~off:(Array.sub pv.View.off 0 (n + 1))
        ~adj:(Array.sub pv.View.adj 0 pv.View.arcs);
    brokers;
    broker_count = s.broker_count;
  }

let project g ~is_broker = project_view (View.of_graph g) ~is_broker
let graph t = t.graph
let is_broker t v = B.mem t.brokers v
let broker_count (t : t) = t.broker_count
let arcs t = 2 * Graph.m t.graph
