module T = Broker_topo.Topology
module G = Broker_graph.Graph
module Nm = Broker_topo.Node_meta

type route_class = Via_customer | Via_peer | Via_provider

type route = { hops : int; via : route_class }

(* All three passes read the topology as CSR arrays plus one relation
   label per arc (the topology's arc_relations): no relation lookup per
   arc. *)

(* Customer routes: BFS from d along customer→provider arcs (a provider
   inherits a customer route from each customer it serves). [dist] is all
   -1 on entry; [queue] is scratch of length n. *)
let[@brokercheck.noalloc] customer_pass ~off ~adj ~labels dist queue d =
  dist.(d) <- 0;
  queue.(0) <- d;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du1 = dist.(u) + 1 in
    for a = off.(u) to off.(u + 1) - 1 do
      let p = Array.unsafe_get adj a in
      (* u is a customer of p: p learns the route from its customer u. *)
      if dist.(p) < 0 && Bytes.unsafe_get labels a = Nm.arc_up then begin
        dist.(p) <- du1;
        queue.(!tail) <- p;
        incr tail
      end
    done
  done

(* Peer routes: one peering segment off a neighbor's customer route —
   either a direct peering edge (1 hop) or an AS→IXP→AS crossing (2
   hops). While the AS entries fill, each IXP's own slot holds the best
   customer-route distance among its members (max_int when none), which
   makes the fabric scan linear; the slots are cleared afterwards. A
   member never routes through itself: only ASes without a customer
   route look for a peer route. *)
let peer_pass ~off ~adj ~labels ~kinds dist_c =
  let n = Array.length dist_c in
  let dist = Array.make n (-1) in
  for x = 0 to n - 1 do
    if not (Nm.is_as kinds.(x)) then begin
      let best = ref max_int in
      for a = off.(x) to off.(x + 1) - 1 do
        let w = adj.(a) in
        let dw = dist_c.(w) in
        if dw >= 0 && dw < !best && Nm.is_as kinds.(w) then best := dw
      done;
      dist.(x) <- !best
    end
  done;
  for v = 0 to n - 1 do
    if dist_c.(v) < 0 && Nm.is_as kinds.(v) then begin
      let best = ref max_int in
      for a = off.(v) to off.(v + 1) - 1 do
        let w = adj.(a) in
        if not (Nm.is_as kinds.(w)) then begin
          let d = dist.(w) in
          if d < max_int && d + 2 < !best then best := d + 2
        end
        else begin
          let l = Bytes.unsafe_get labels a in
          if (l = Nm.arc_peer || l = Nm.arc_ixp) && dist_c.(w) >= 0 && dist_c.(w) + 1 < !best
          then best := dist_c.(w) + 1
        end
      done;
      if !best < max_int then dist.(v) <- !best
    end
  done;
  for x = 0 to n - 1 do
    if not (Nm.is_as kinds.(x)) then dist.(x) <- -1
  done;
  dist

(* Provider routes: descend provider→customer arcs from every routed AS,
   seeded at its customer- or peer-route length. Hops all cost one, so
   merging the seeds in increasing length (a counting sort) with the FIFO
   frontier expands vertices in the order a priority queue would settle
   them; a relaxation only has to beat the length a vertex already holds
   (its seed length, for a routed AS). Only vertices without a
   better-class route keep an entry. *)
let provider_pass ~off ~adj ~labels dist_c dist_p =
  let n = Array.length dist_c in
  let seed_len v = if dist_c.(v) >= 0 then dist_c.(v) else dist_p.(v) in
  let len = Array.init n seed_len in
  let start = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let k = len.(v) in
    if k >= 0 then start.(k + 1) <- start.(k + 1) + 1
  done;
  for k = 1 to n do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let n_seeds = start.(n) in
  let seeds = Array.make n_seeds 0 in
  for v = 0 to n - 1 do
    let k = len.(v) in
    if k >= 0 then begin
      seeds.(start.(k)) <- v;
      start.(k) <- start.(k) + 1
    end
  done;
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 and next_seed = ref 0 in
  while !next_seed < n_seeds || !head < !tail do
    let u =
      if
        !next_seed < n_seeds
        && (!head >= !tail || len.(seeds.(!next_seed)) <= len.(queue.(!head)))
      then begin
        let s = seeds.(!next_seed) in
        incr next_seed;
        (* A seed reached by a shorter relaxation is expanded from the
           frontier instead. *)
        if len.(s) < seed_len s then -1 else s
      end
      else begin
        let u = queue.(!head) in
        incr head;
        u
      end
    in
    if u >= 0 then begin
      (* The route propagates from provider u to its customers only. *)
      let l1 = len.(u) + 1 in
      for a = off.(u) to off.(u + 1) - 1 do
        let c = adj.(a) in
        if (len.(c) < 0 || l1 < len.(c)) && Bytes.unsafe_get labels a = Nm.arc_down
        then begin
          len.(c) <- l1;
          queue.(!tail) <- c;
          incr tail
        end
      done
    end
  done;
  for v = 0 to n - 1 do
    if seed_len v >= 0 then len.(v) <- -1
  done;
  len

let routes_to topo d =
  let g = topo.T.graph in
  let n = G.n g in
  let off = G.csr_off g and adj = G.csr_adj g in
  let labels = topo.T.arc_relations in
  let dist_c = Array.make n (-1) in
  customer_pass ~off ~adj ~labels dist_c (Array.make n 0) d;
  let dist_p = peer_pass ~off ~adj ~labels ~kinds:topo.T.kinds dist_c in
  let dist_pr = provider_pass ~off ~adj ~labels dist_c dist_p in
  Array.init n (fun v ->
      if dist_c.(v) >= 0 then Some { hops = dist_c.(v); via = Via_customer }
      else if dist_p.(v) >= 0 then Some { hops = dist_p.(v); via = Via_peer }
      else if dist_pr.(v) >= 0 then Some { hops = dist_pr.(v); via = Via_provider }
      else None)

let sample_routes ~rng ~destinations topo f =
  let as_nodes = T.ases topo in
  let n = Array.length as_nodes in
  let k = min destinations n in
  let idx = Broker_util.Sampling.without_replacement rng ~n ~k in
  Array.iter (fun i -> f as_nodes.(i) (routes_to topo as_nodes.(i))) idx

let reachable_fraction ~rng ~destinations topo =
  let reached = ref 0 and total = ref 0 in
  sample_routes ~rng ~destinations topo (fun d routes ->
      Array.iteri
        (fun v r ->
          if v <> d && T.is_as topo v then begin
            incr total;
            if r <> None then incr reached
          end)
        routes);
  if !total = 0 then 0.0 else float_of_int !reached /. float_of_int !total

let average_path_length ~rng ~destinations topo =
  let sum = ref 0 and count = ref 0 in
  sample_routes ~rng ~destinations topo (fun d routes ->
      Array.iteri
        (fun v r ->
          match r with
          | Some { hops; _ } when v <> d && T.is_as topo v ->
              sum := !sum + hops;
              incr count
          | Some _ | None -> ())
        routes);
  if !count = 0 then 0.0 else float_of_int !sum /. float_of_int !count
