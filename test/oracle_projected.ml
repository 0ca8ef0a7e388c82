(* Reference implementation for the projection differential tests: the
   two-pass projection Broker_graph.Projected used before the single-pass
   scratch kernel, kept as it was. A counting pass sizes each vertex's
   kept segment, then a fill pass writes it into exact-length arrays. The
   kernel must produce the same offsets and adjacency, bit for bit, and
   the same broker membership. *)

module B = Broker_util.Bitset
module View = Broker_graph.View

type t = { graph : Broker_graph.Graph.t; brokers : B.t; broker_count : int }

let project_view vw ~is_broker =
  let n = vw.View.n in
  let off = vw.View.off and adj = vw.View.adj in
  let ov = vw.View.overlaid in
  let dirty = vw.View.dirty and xoff = vw.View.xoff and xadj = vw.View.xadj in
  let brokers = B.create n in
  let broker_count = ref 0 in
  for v = 0 to n - 1 do
    if is_broker v then begin
      B.add brokers v;
      incr broker_count
    end
  done;
  let seg u =
    let du = ov && dirty.(u) in
    if du then (xadj, xoff.(u), xoff.(u + 1)) else (adj, off.(u), off.(u + 1))
  in
  let poff = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let a, lo, hi = seg u in
    let kept =
      if B.mem brokers u then hi - lo
      else begin
        let c = ref 0 in
        for i = lo to hi - 1 do
          if B.mem brokers a.(i) then incr c
        done;
        !c
      end
    in
    poff.(u + 1) <- poff.(u) + kept
  done;
  let padj = Array.make poff.(n) 0 in
  for u = 0 to n - 1 do
    let a, lo, hi = seg u in
    if B.mem brokers u then Array.blit a lo padj poff.(u) (hi - lo)
    else begin
      let w = ref poff.(u) in
      for i = lo to hi - 1 do
        let v = a.(i) in
        if B.mem brokers v then begin
          padj.(!w) <- v;
          incr w
        end
      done
    end
  done;
  {
    graph = Broker_graph.Graph.of_csr_unchecked ~n ~off:poff ~adj:padj;
    brokers;
    broker_count = !broker_count;
  }
