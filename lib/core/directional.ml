module G = Broker_graph.Graph
module T = Broker_topo.Topology
module Nm = Broker_topo.Node_meta
module Bitset = Broker_util.Bitset

(* One bit per CSR arc of [graph], both arcs of an upgraded edge set,
   and one bit per vertex with an upgraded arc ([ends]); [graph = None]
   only for the shared empty set. *)
type upgrades = { graph : G.t option; bits : Bitset.t; ends : Bitset.t; count : int }

let no_upgrades = { graph = None; bits = Bitset.create 0; ends = Bitset.create 0; count = 0 }

let upgrade_broker_edges ~rng topo ~brokers ~fraction =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Directional.upgrade_broker_edges: fraction in [0,1]";
  let g = topo.T.graph in
  let n = G.n g in
  let is_broker = Connectivity.of_brokers ~n brokers in
  (* Broker–broker edges (b < w) encoded as [b * n + w], reversed after
     the scan: the order the shuffle has always seen. *)
  let found = Array.make (Array.fold_left (fun acc b -> acc + G.degree g b) 0 brokers) 0 in
  let total = ref 0 in
  Array.iter
    (fun b ->
      G.iter_neighbors g b (fun w ->
          if b < w && is_broker w then begin
            found.(!total) <- (b * n) + w;
            incr total
          end))
    brokers;
  let arr = Array.init !total (fun i -> found.(!total - 1 - i)) in
  Broker_util.Xrandom.shuffle rng arr;
  let take = int_of_float (fraction *. float_of_int (Array.length arr)) in
  let bits = Bitset.create (G.arcs g) and ends = Bitset.create n in
  let count = ref 0 in
  for i = 0 to take - 1 do
    let b = arr.(i) / n and w = arr.(i) mod n in
    let fwd = G.arc_index g b w in
    if not (Bitset.mem bits fwd) then begin
      incr count;
      Bitset.add bits fwd;
      Bitset.add bits (G.arc_index g w b);
      Bitset.add ends b;
      Bitset.add ends w
    end
  done;
  { graph = Some g; bits; ends; count = !count }

let upgrade_count u = u.count

let check_upgrades upgrades g =
  match upgrades.graph with
  | Some g' when g' != g ->
      invalid_arg "Directional: upgrades built on a different graph"
  | Some _ | None -> ()

(* Two-phase valley-free BFS over the product (vertex, phase): state
   [2v] is phase 0 = ascending (customer→provider hops so far only),
   [2v + 1] is phase 1 = descending (a peak — peer hop, fabric exit or
   first provider→customer hop — has been passed). [seen] (at least 2n
   bytes, all zero on entry) marks the discovered states and [queue] (length
   >= 2n) holds them in visit order, one level after another.

   The hop class of an arc is resolved from the upgrade bit, the kind of
   its head, the kind of its tail and its relation label, in that order;
   unknown relations count as peering. An ascending state can take every
   arc, so it scans the full CSR. A descending state can only take an
   upgraded arc or a provider→customer arc between two ASes, so it reads
   the tail's customers (when the tail is an AS) and the set bits of
   [ups] over the tail's arc range, nothing else.

   A vertex is reached at the level of its first discovered state, the
   shorter of its two phases. It is counted in [hist] at that level
   (levels past the last slot land in the last slot; the source is never
   counted) and, when [dist] is not empty, written to [dist]. *)
let[@brokercheck.noalloc] sweep ~off ~adj ~labels ~kinds ~is_broker ~ups ~has_ups
    ~ends ~customers ~hist ~dist seen queue src =
  let coff = customers.T.off and cadj = customers.T.adj in
  let cap = Array.length hist - 1 in
  let record = Array.length dist > 0 in
  let bpw = Bitset.bits_per_word in
  Bytes.unsafe_set seen (2 * src) '\001';
  queue.(0) <- 2 * src;
  if record then dist.(src) <- 0;
  let head = ref 0 and tail = ref 1 and level = ref 0 in
  let wi = ref 0 and w = ref 0 in
  while !head < !tail do
    let level_end = !tail in
    incr level;
    let d1 = !level in
    let h = if d1 < cap then d1 else cap in
    while !head < level_end do
      let i = queue.(!head) in
      incr head;
      let u = i lsr 1 in
      let u_broker = is_broker u in
      let u_as = Nm.is_as kinds.(u) in
      if i land 1 = 0 then
        for a = off.(u) to off.(u + 1) - 1 do
          let v = Array.unsafe_get adj a in
          if u_broker || is_broker v then begin
            let j =
              if
                (has_ups && Bitset.unsafe_mem ups a)
                || (not (Nm.is_as kinds.(v)))
                || (u_as && Bytes.unsafe_get labels a = Nm.arc_up)
              then 2 * v
              else (2 * v) + 1
            in
            if Bytes.unsafe_get seen j = '\000' then begin
              Bytes.unsafe_set seen j '\001';
              queue.(!tail) <- j;
              incr tail;
              if Bytes.unsafe_get seen (j lxor 1) = '\000' then begin
                hist.(h) <- hist.(h) + 1;
                if record then dist.(v) <- d1
              end
            end
          end
        done
      else begin
        if u_as then
          for a = coff.(u) to coff.(u + 1) - 1 do
            let v = Array.unsafe_get cadj a in
            let j = (2 * v) + 1 in
            if
              (u_broker || is_broker v)
              && Nm.is_as kinds.(v)
              && Bytes.unsafe_get seen j = '\000'
            then begin
              Bytes.unsafe_set seen j '\001';
              queue.(!tail) <- j;
              incr tail;
              if Bytes.unsafe_get seen (j - 1) = '\000' then begin
                hist.(h) <- hist.(h) + 1;
                if record then dist.(v) <- d1
              end
            end
          done;
        (* Upgraded arcs, a word of [ups] at a time: bit k of a word is
           the popcount of the bits below its isolated lowest bit. *)
        let lo = off.(u) and hi = off.(u + 1) in
        if has_ups && Bitset.unsafe_mem ends u then begin
          wi := lo / bpw;
          while !wi * bpw < hi do
            let base = !wi * bpw in
            w := Bitset.unsafe_word ups !wi;
            if base < lo then w := !w land (-1 lsl (lo - base));
            if hi - base < bpw then w := !w land ((1 lsl (hi - base)) - 1);
            while !w <> 0 do
              let b = !w land (- !w) in
              w := !w lxor b;
              let v = Array.unsafe_get adj (base + Bitset.popcount (b - 1)) in
              let j = (2 * v) + 1 in
              if (u_broker || is_broker v) && Bytes.unsafe_get seen j = '\000' then begin
                Bytes.unsafe_set seen j '\001';
                queue.(!tail) <- j;
                incr tail;
                if Bytes.unsafe_get seen (j - 1) = '\000' then begin
                  hist.(h) <- hist.(h) + 1;
                  if record then dist.(v) <- d1
                end
              end
            done;
            incr wi
          done
        end
      end
    done
  done

(* Per-domain scratch for [n] vertices: [seen] is cleared before each
   sweep, so a sweep that raised leaves nothing behind. *)
type workspace = { mutable seen : Bytes.t; mutable queue : int array }

let local_key = Domain.DLS.new_key (fun () -> { seen = Bytes.empty; queue = [||] })

let local n =
  let ws = Domain.DLS.get local_key in
  if Array.length ws.queue < 2 * n then begin
    ws.seen <- Bytes.make (2 * n) '\000';
    ws.queue <- Array.make (2 * n) 0
  end;
  ws

let run ws topo ~is_broker ~upgrades ~hist ~dist src =
  let g = topo.T.graph in
  Bytes.fill ws.seen 0 (2 * G.n g) '\000';
  sweep ~off:(G.csr_off g) ~adj:(G.csr_adj g) ~labels:topo.T.arc_relations
    ~kinds:topo.T.kinds ~is_broker ~ups:upgrades.bits ~has_ups:(upgrades.count > 0)
    ~ends:upgrades.ends
    ~customers:topo.T.customers ~hist ~dist ws.seen ws.queue src

let distances ?(upgrades = no_upgrades) topo ~is_broker src =
  let n = T.n topo in
  if src < 0 || src >= n then invalid_arg "Directional.distances: source out of range";
  check_upgrades upgrades topo.T.graph;
  let dist = Array.make n (-1) in
  run (local n) topo ~is_broker ~upgrades ~hist:[| 0 |] ~dist src;
  dist

(* Sources are strided across domains (per-source cost is very uneven);
   every tally is an integer count, so the curve is independent of
   REPRO_DOMAINS. Each worker takes its own domain's workspace. *)
let curve_sampled ?(l_max = 10) ?(upgrades = no_upgrades) ?source_set ~rng
    ~sources topo ~is_broker =
  let n = T.n topo in
  if l_max < 0 then invalid_arg "Directional.curve_sampled: l_max must be >= 0";
  check_upgrades upgrades topo.T.graph;
  if n < 2 then
    { Connectivity.l_max; per_hop = Array.make (l_max + 1) 0.0; saturated = 0.0 }
  else begin
    let srcs =
      match source_set with
      | Some s -> s
      | None ->
          let k = min sources n in
          Broker_util.Sampling.without_replacement rng ~n ~k
    in
    Array.iter
      (fun s ->
        if s < 0 || s >= n then invalid_arg "Directional.curve_sampled: source out of range")
      srcs;
    let nsrc = Array.length srcs in
    (* Slot [l_max + 1] counts the vertices reached beyond [l_max]. *)
    let worker ~start ~step =
      let ws = local n in
      let hist = Array.make (l_max + 2) 0 in
      let i = ref start in
      while !i < nsrc do
        run ws topo ~is_broker ~upgrades ~hist ~dist:[||] srcs.(!i);
        i := !i + step
      done;
      hist
    in
    let merge x y =
      Array.iteri (fun l c -> x.(l) <- x.(l) + c) y;
      x
    in
    let hist =
      Broker_util.Parallel.strided ~n:nsrc ~worker ~merge (Array.make (l_max + 2) 0)
    in
    let reached = ref 0 in
    for l = 1 to l_max + 1 do
      reached := !reached + hist.(l)
    done;
    Connectivity.curve_of_counts ~l_max ~hist ~reached:!reached ~total:(nsrc * (n - 1))
  end

let saturated_sampled ?(upgrades = no_upgrades) ?source_set ~rng ~sources topo
    ~is_broker =
  (curve_sampled ~l_max:1 ~upgrades ?source_set ~rng ~sources topo ~is_broker)
    .Connectivity.saturated
