(* Test-only reference implementations of the valley-free BFS and the
   three BGP route passes, kept as plain [Graph.iter_neighbors]
   traversals: every arc resolves its relation through its own
   [Graph.arc_index] search rather than the kernels' CSR position. The differential tests in
   test_routing.ml pin the label-based kernels to these, bit for bit. *)

module G = Broker_graph.Graph
module T = Broker_topo.Topology
module Nm = Broker_topo.Node_meta

(* Relation of the arc u -> v, read from u's side. *)
let label topo u v = Bytes.get topo.T.arc_relations (G.arc_index topo.T.graph u v)
let customer_of topo u v = label topo u v = Nm.arc_up
let provider_of topo u v = label topo u v = Nm.arc_down

let peers topo u v =
  let l = label topo u v in
  l = Nm.arc_peer || l = Nm.arc_ixp

(* The neighbours v of u, in adjacency order, whose arc u -> v carries
   label [l]: customers under [arc_down], providers under [arc_up]. *)
let labelled_neighbours topo u l =
  List.filter (fun v -> label topo u v = l) (Array.to_list (G.neighbors topo.T.graph u))

(* ---------- Directional ---------- *)

type upgrades = (int * int, unit) Hashtbl.t

let no_upgrades : upgrades = Hashtbl.create 1

let canon u v = if u < v then (u, v) else (v, u)

let upgrade_broker_edges ~rng topo ~brokers ~fraction =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Directional.upgrade_broker_edges: fraction in [0,1]";
  let g = topo.T.graph in
  let is_broker = Broker_core.Connectivity.of_brokers ~n:(G.n g) brokers in
  let candidates = ref [] in
  Array.iter
    (fun b ->
      G.iter_neighbors g b (fun w ->
          if b < w && is_broker w then candidates := (b, w) :: !candidates))
    brokers;
  let arr = Array.of_list !candidates in
  Broker_util.Xrandom.shuffle rng arr;
  let take = int_of_float (fraction *. float_of_int (Array.length arr)) in
  let tbl : upgrades = Hashtbl.create (2 * max take 1) in
  for i = 0 to take - 1 do
    Hashtbl.replace tbl arr.(i) ()
  done;
  tbl

let upgrade_count = Hashtbl.length

(* Two-phase valley-free BFS. State 0 = ascending (customer→provider hops
   so far only), state 1 = descending (a peak — peer hop or first
   provider→customer hop — has been passed). *)
let bfs_valley_free topo ~is_broker ~upgrades src dist_out =
  let g = topo.T.graph in
  let n = G.n g in
  let is_ixp v = T.is_ixp topo v in
  let dist = Array.make (2 * n) (-1) in
  let queue = Array.make (2 * n) 0 in
  let head = ref 0 and tail = ref 0 in
  let push v s d =
    let i = (2 * v) + s in
    if dist.(i) < 0 then begin
      dist.(i) <- d;
      queue.(!tail) <- i;
      incr tail
    end
  in
  push src 0 0;
  while !head < !tail do
    let i = queue.(!head) in
    incr head;
    let u = i / 2 and s = i land 1 in
    let d = dist.(i) in
    G.iter_neighbors g u (fun v ->
        if is_broker u || is_broker v then begin
          if Hashtbl.mem upgrades (canon u v) then push v s (d + 1)
          else if is_ixp v then begin
            (* Entering an IXP fabric: part of a peering, ascending only. *)
            if s = 0 then push v 0 (d + 1)
          end
          else if is_ixp u then begin
            (* Leaving the fabric consumes the peering transition. *)
            if s = 0 then push v 1 (d + 1)
          end
          else if customer_of topo u v then begin
            if s = 0 then push v 0 (d + 1)
          end
          else if provider_of topo u v then push v 1 (d + 1)
          else if s = 0 then push v 1 (d + 1) (* peer or unknown *)
        end)
  done;
  for v = 0 to n - 1 do
    let a = dist.(2 * v) and b = dist.((2 * v) + 1) in
    dist_out.(v) <-
      (if a < 0 then b else if b < 0 then a else min a b)
  done

let distances ?(upgrades = no_upgrades) topo ~is_broker src =
  let dist = Array.make (T.n topo) (-1) in
  bfs_valley_free topo ~is_broker ~upgrades src dist;
  dist

(* ---------- Bgp ---------- *)

(* Customer routes: BFS from d along customer→provider arcs (a provider
   inherits a customer route from each customer it serves). *)
let customer_pass topo d =
  let g = topo.T.graph in
  let n = G.n g in
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  dist.(d) <- 0;
  queue.(!tail) <- d;
  incr tail;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    G.iter_neighbors g u (fun p ->
        (* u is a customer of p: p learns the route from its customer u. *)
        if dist.(p) < 0 && customer_of topo u p then begin
          dist.(p) <- dist.(u) + 1;
          queue.(!tail) <- p;
          incr tail
        end)
  done;
  dist

(* Peer routes: one peering segment off a neighbor's customer route —
   either a direct peering edge (1 hop) or an AS→IXP→AS crossing (2
   hops). Per-IXP minima make the fabric scan linear. *)
let peer_pass topo dist_c =
  let g = topo.T.graph in
  let n = G.n g in
  let dist = Array.make n (-1) in
  (* For each IXP: the two best customer-route distances among members
     (two, so a member does not route through itself). *)
  let ixp_best = Hashtbl.create 64 in
  Array.iter
    (fun x ->
      let best1 = ref (max_int, -1) and best2 = ref (max_int, -1) in
      G.iter_neighbors g x (fun w ->
          if T.is_as topo w && dist_c.(w) >= 0 then begin
            if dist_c.(w) < fst !best1 then begin
              best2 := !best1;
              best1 := (dist_c.(w), w)
            end
            else if dist_c.(w) < fst !best2 then best2 := (dist_c.(w), w)
          end);
      Hashtbl.replace ixp_best x (!best1, !best2))
    (T.ixps topo);
  for v = 0 to n - 1 do
    if T.is_as topo v && dist_c.(v) < 0 then begin
      let best = ref max_int in
      G.iter_neighbors g v (fun w ->
          if T.is_ixp topo w then begin
            match Hashtbl.find_opt ixp_best w with
            | Some ((d1, w1), (d2, _)) ->
                let d = if w1 = v then d2 else d1 in
                if d < max_int && d + 2 < !best then best := d + 2
            | None -> ()
          end
          else if peers topo v w && dist_c.(w) >= 0 then
            if dist_c.(w) + 1 < !best then best := dist_c.(w) + 1);
      if !best < max_int then dist.(v) <- !best
    end
  done;
  dist

(* Provider routes: descend provider→customer arcs from any routed AS, in
   increasing distance order (distances differ, so a heap orders the
   relaxation). *)
let provider_pass topo dist_c dist_p =
  let g = topo.T.graph in
  let n = G.n g in
  let dist = Array.make n (-1) in
  let heap = Broker_util.Heap.create ~initial_capacity:1024 Broker_util.Heap.Min in
  let seed v d = Broker_util.Heap.push heap ~priority:(float_of_int d) v in
  for v = 0 to n - 1 do
    let d =
      if dist_c.(v) >= 0 then dist_c.(v)
      else if dist_p.(v) >= 0 then dist_p.(v)
      else -1
    in
    if d >= 0 then seed v d
  done;
  let settled = Array.make n false in
  let continue = ref true in
  while !continue do
    match Broker_util.Heap.pop heap with
    | None -> continue := false
    | Some (fd, u) ->
        if not settled.(u) then begin
          settled.(u) <- true;
          let d = int_of_float fd in
          (* The route propagates from provider u to its customers only. *)
          G.iter_neighbors g u (fun c ->
              if (not settled.(c)) && provider_of topo u c then begin
                let nd = d + 1 in
                if dist.(c) < 0 || nd < dist.(c) then begin
                  dist.(c) <- nd;
                  seed c nd
                end
              end)
        end
  done;
  (* Remove entries that merely echo a better-class route. *)
  for v = 0 to n - 1 do
    if dist_c.(v) >= 0 || dist_p.(v) >= 0 then dist.(v) <- -1
  done;
  dist

let routes_to topo d =
  let dist_c = customer_pass topo d in
  let dist_p = peer_pass topo dist_c in
  let dist_pr = provider_pass topo dist_c dist_p in
  Array.init (T.n topo) (fun v ->
      if dist_c.(v) >= 0 then
        Some { Broker_routing.Bgp.hops = dist_c.(v); via = Broker_routing.Bgp.Via_customer }
      else if dist_p.(v) >= 0 then
        Some { Broker_routing.Bgp.hops = dist_p.(v); via = Broker_routing.Bgp.Via_peer }
      else if dist_pr.(v) >= 0 then
        Some { Broker_routing.Bgp.hops = dist_pr.(v); via = Broker_routing.Bgp.Via_provider }
      else None)
