module G = Broker_graph.Graph
module T = Broker_topo.Topology
module Nm = Broker_topo.Node_meta
module Bitset = Broker_util.Bitset

(* One bit per CSR arc of [graph], both arcs of an upgraded edge set;
   [graph = None] only for the shared empty set. *)
type upgrades = { graph : G.t option; bits : Bitset.t; count : int }

let no_upgrades = { graph = None; bits = Bitset.create 0; count = 0 }

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
  let bits = Bitset.create (G.arcs g) in
  let count = ref 0 in
  for i = 0 to take - 1 do
    let b = arr.(i) / n and w = arr.(i) mod n in
    let fwd = G.arc_index g b w in
    if not (Bitset.mem bits fwd) then begin
      incr count;
      Bitset.add bits fwd;
      Bitset.add bits (G.arc_index g w b)
    end
  done;
  { graph = Some g; bits; count = !count }

let upgrade_count u = u.count

let check_upgrades upgrades g =
  match upgrades.graph with
  | Some g' when g' != g ->
      invalid_arg "Directional: upgrades built on a different graph"
  | Some _ | None -> ()

(* Two-phase valley-free BFS over the product (vertex, phase): index
   [2v] is phase 0 = ascending (customer→provider hops so far only),
   [2v + 1] is phase 1 = descending (a peak — peer hop, fabric exit or
   first provider→customer hop — has been passed). [dist] (length 2n, all
   -1 on entry) receives the product distances and [queue] (length 2n)
   the visit order; returns how many product states were reached, i.e.
   the prefix of [queue] the caller resets. The hop class of an arc is
   resolved from the upgrade bit, the endpoint kinds and the arc's
   relation label, in that order; unknown relations count as peering. *)
let[@brokercheck.noalloc] sweep ~off ~adj ~labels ~kinds ~is_broker ~ups
    ~has_ups dist queue src =
  dist.(2 * src) <- 0;
  queue.(0) <- 2 * src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let i = queue.(!head) in
    incr head;
    let u = i lsr 1 and s = i land 1 in
    let d1 = dist.(i) + 1 in
    let u_broker = is_broker u in
    let u_ixp = not (Nm.is_as kinds.(u)) in
    for a = off.(u) to off.(u + 1) - 1 do
      let v = Array.unsafe_get adj a in
      if u_broker || is_broker v then begin
        (* Phase after the hop, or -1 when the hop would form a valley. *)
        let t =
          if has_ups && Bitset.unsafe_mem ups a then s
          else if not (Nm.is_as kinds.(v)) then
            (* Entering an IXP fabric: part of a peering, ascending only. *)
            if s = 0 then 0 else -1
          else if u_ixp then
            (* Leaving the fabric consumes the peering transition. *)
            if s = 0 then 1 else -1
          else begin
            let l = Bytes.unsafe_get labels a in
            if l = Nm.arc_up then if s = 0 then 0 else -1
            else if l = Nm.arc_down then 1
            else if s = 0 then 1 (* peer or unknown *)
            else -1
          end
        in
        if t >= 0 then begin
          let j = (2 * v) + t in
          if dist.(j) < 0 then begin
            dist.(j) <- d1;
            queue.(!tail) <- j;
            incr tail
          end
        end
      end
    done
  done;
  !tail

(* Per-traversal scratch over one topology, reused across the sources of
   one call. *)
type kernel = {
  topo : T.t;
  is_broker : int -> bool;
  upgrades : upgrades;
  labels : Bytes.t;
  dist2 : int array;
  queue : int array;
}

let kernel topo ~is_broker ~upgrades =
  let g = topo.T.graph in
  check_upgrades upgrades g;
  let n = G.n g in
  {
    topo;
    is_broker;
    upgrades;
    labels = topo.T.arc_relations;
    dist2 = Array.make (2 * n) (-1);
    queue = Array.make (2 * n) 0;
  }

(* Valley-free distance from [src] to every vertex (the shorter of the
   two phases; -1 when unreachable) into [dist_out]. *)
let run k src dist_out =
  let g = k.topo.T.graph in
  let reached =
    sweep ~off:(G.csr_off g) ~adj:(G.csr_adj g) ~labels:k.labels
      ~kinds:k.topo.T.kinds ~is_broker:k.is_broker ~ups:k.upgrades.bits
      ~has_ups:(k.upgrades.count > 0) k.dist2 k.queue src
  in
  let dist = k.dist2 in
  for v = 0 to G.n g - 1 do
    let a = dist.(2 * v) and b = dist.((2 * v) + 1) in
    dist_out.(v) <- (if a < 0 then b else if b < 0 || a <= b then a else b)
  done;
  for q = 0 to reached - 1 do
    dist.(k.queue.(q)) <- -1
  done

let distances ?(upgrades = no_upgrades) topo ~is_broker src =
  let n = T.n topo in
  if src < 0 || src >= n then invalid_arg "Directional.distances: source out of range";
  let dist = Array.make n (-1) in
  run (kernel topo ~is_broker ~upgrades) src dist;
  dist

let curve_sampled ?(l_max = 10) ?(upgrades = no_upgrades) ?source_set ~rng
    ~sources topo ~is_broker =
  let n = T.n topo in
  let kern = kernel topo ~is_broker ~upgrades in
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
    let hist = Array.make (l_max + 1) 0 in
    let reached = ref 0 and total = ref 0 in
    let dist = Array.make n (-1) in
    Array.iter
      (fun s ->
        run kern s dist;
        Array.iteri
          (fun v d ->
            if v <> s && d > 0 then begin
              incr reached;
              if d <= l_max then hist.(d) <- hist.(d) + 1
            end)
          dist;
        total := !total + (n - 1))
      srcs;
    let ftotal = float_of_int (max 1 !total) in
    let per_hop = Array.make (l_max + 1) 0.0 in
    let acc = ref 0 in
    for l = 1 to l_max do
      acc := !acc + hist.(l);
      per_hop.(l) <- float_of_int !acc /. ftotal
    done;
    {
      Connectivity.l_max;
      per_hop;
      saturated = float_of_int !reached /. ftotal;
    }
  end

let saturated_sampled ?(upgrades = no_upgrades) ?source_set ~rng ~sources topo
    ~is_broker =
  (curve_sampled ~l_max:1 ~upgrades ?source_set ~rng ~sources topo ~is_broker)
    .Connectivity.saturated
