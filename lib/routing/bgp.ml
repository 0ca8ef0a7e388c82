module T = Broker_topo.Topology
module G = Broker_graph.Graph
module Nm = Broker_topo.Node_meta

type route_class = Via_customer | Via_peer | Via_provider

type route = { hops : int; via : route_class }

(* The customer and provider passes walk the topology's [providers] and
   [customers] CSRs, so they never see an arc of another class; the peer
   pass reads the full CSR plus one relation label per arc. All scratch
   lives in a per-domain workspace ([n] is the vertex count of the
   current call; the arrays may be longer). *)
type workspace = {
  mutable dist_c : int array;  (* customer-route length *)
  mutable dist_p : int array;  (* peer-route length *)
  mutable len : int array;  (* provider pass: best length so far *)
  mutable start : int array;  (* counting-sort buckets, one per seed length + 1 *)
  mutable seeds : int array;
  mutable queue : int array;  (* BFS queue of the customer and provider passes *)
  mutable routes : route option array;  (* shared outputs, at [3 * hops + class] *)
}

let local_key =
  Domain.DLS.new_key (fun () ->
      {
        dist_c = [||];
        dist_p = [||];
        len = [||];
        start = [||];
        seeds = [||];
        queue = [||];
        routes = [||];
      })

let local n =
  let ws = Domain.DLS.get local_key in
  if Array.length ws.dist_c < n then begin
    ws.dist_c <- Array.make n (-1);
    ws.dist_p <- Array.make n (-1);
    ws.len <- Array.make n (-1);
    ws.seeds <- Array.make n 0;
    ws.queue <- Array.make n 0
  end;
  ws

(* Customer routes: BFS from d along customer→provider arcs (a provider
   inherits a customer route from each customer it serves). [dist] is
   filled with -1 first. *)
let[@brokercheck.noalloc] customer_pass ~providers ~n dist queue d =
  let off = providers.T.off and adj = providers.T.adj in
  Array.fill dist 0 n (-1);
  dist.(d) <- 0;
  queue.(0) <- d;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du1 = dist.(u) + 1 in
    (* u is a customer of each p: p learns the route from its customer u. *)
    for a = off.(u) to off.(u + 1) - 1 do
      let p = Array.unsafe_get adj a in
      if dist.(p) < 0 then begin
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
let[@brokercheck.noalloc] peer_pass ~off ~adj ~labels ~kinds ~n dist_c dist =
  Array.fill dist 0 n (-1);
  let best = ref max_int in
  for x = 0 to n - 1 do
    if not (Nm.is_as kinds.(x)) then begin
      best := max_int;
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
      best := max_int;
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
  done

(* Provider routes: descend provider→customer arcs from every routed AS,
   seeded at its customer- or peer-route length. Hops all cost one, so
   merging the seeds in increasing length (a counting sort) with the FIFO
   frontier expands vertices in the order a priority queue would settle
   them; a relaxation only has to beat the length a vertex already holds
   (its seed length, for a routed AS). Only vertices without a
   better-class route keep an entry in [ws.len]. Seed lengths are below
   [buckets - 1]. *)
let[@brokercheck.noalloc] provider_pass ~customers ~n ~buckets ws =
  let off = customers.T.off and adj = customers.T.adj in
  let dist_c = ws.dist_c and dist_p = ws.dist_p in
  let len = ws.len and start = ws.start and seeds = ws.seeds and queue = ws.queue in
  for v = 0 to n - 1 do
    len.(v) <- (if dist_c.(v) >= 0 then dist_c.(v) else dist_p.(v))
  done;
  Array.fill start 0 buckets 0;
  for v = 0 to n - 1 do
    let k = len.(v) in
    if k >= 0 then start.(k + 1) <- start.(k + 1) + 1
  done;
  for k = 1 to buckets - 1 do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let n_seeds = start.(buckets - 1) in
  for v = 0 to n - 1 do
    let k = len.(v) in
    if k >= 0 then begin
      seeds.(start.(k)) <- v;
      start.(k) <- start.(k) + 1
    end
  done;
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
        if len.(s) < (if dist_c.(s) >= 0 then dist_c.(s) else dist_p.(s)) then -1 else s
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
        let c = Array.unsafe_get adj a in
        if len.(c) < 0 || l1 < len.(c) then begin
          len.(c) <- l1;
          queue.(!tail) <- c;
          incr tail
        end
      done
    end
  done;
  for v = 0 to n - 1 do
    if dist_c.(v) >= 0 || dist_p.(v) >= 0 then len.(v) <- -1
  done

(* Routes are immutable, so the outputs of one domain share one value per
   (hops, class): an output costs its array and nothing per vertex. *)
let shared ws hops via =
  let i = (3 * hops) + match via with Via_customer -> 0 | Via_peer -> 1 | Via_provider -> 2 in
  let len = Array.length ws.routes in
  if i >= len then begin
    let bigger = Array.make (Int.max (2 * len) (i + 1)) None in
    Array.blit ws.routes 0 bigger 0 len;
    ws.routes <- bigger
  end;
  match ws.routes.(i) with
  | Some _ as r -> r
  | None ->
      let r = Some { hops; via } in
      ws.routes.(i) <- r;
      r

let routes_to topo d =
  let g = topo.T.graph in
  let n = G.n g in
  let ws = local n in
  customer_pass ~providers:topo.T.providers ~n ws.dist_c ws.queue d;
  peer_pass ~off:(G.csr_off g) ~adj:(G.csr_adj g) ~labels:topo.T.arc_relations
    ~kinds:topo.T.kinds ~n ws.dist_c ws.dist_p;
  let longest = ref (-1) in
  for v = 0 to n - 1 do
    longest := Int.max !longest (Int.max ws.dist_c.(v) ws.dist_p.(v))
  done;
  let buckets = !longest + 2 in
  if Array.length ws.start < buckets then ws.start <- Array.make buckets 0;
  provider_pass ~customers:topo.T.customers ~n ~buckets ws;
  let dist_c = ws.dist_c and dist_p = ws.dist_p and dist_pr = ws.len in
  Array.init n (fun v ->
      if dist_c.(v) >= 0 then shared ws dist_c.(v) Via_customer
      else if dist_p.(v) >= 0 then shared ws dist_p.(v) Via_peer
      else if dist_pr.(v) >= 0 then shared ws dist_pr.(v) Via_provider
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
