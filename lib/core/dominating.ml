module G = Broker_graph.Graph

let is_dominated_path ~is_broker path =
  let rec check = function
    | u :: (v :: _ as rest) -> (is_broker u || is_broker v) && check rest
    | [ _ ] | [] -> true
  in
  check path

(* Dominated-path search over a reusable workspace. The simulator runs
   one search per cache miss — thousands per run — so the scratch lives
   in [workspace] and a search bumps [epoch] instead of allocating or
   clearing n-length arrays: [v] is discovered in the current search iff
   [mark.(v) = epoch], and [parent.(v)] is only meaningful under that
   guard. Liveness is a [bool array] rather than a predicate closure:
   the inner loop reads two cells per arc and calls nothing. *)

type workspace = {
  mutable cap : int;  (* arrays below are sized for [cap] vertices *)
  mutable epoch : int;
  mutable mark : int array;  (* mark.(v) = epoch  <=>  v discovered *)
  mutable parent : int array;  (* valid only under the mark guard *)
  mutable queue : int array;
  mutable src : int;  (* source of the last search *)
}

let workspace () =
  { cap = 0; epoch = 0; mark = [||]; parent = [||]; queue = [||]; src = -1 }

let ensure ws n =
  if ws.cap < n then begin
    ws.cap <- n;
    ws.mark <- Array.make n 0;
    ws.parent <- Array.make n 0;
    ws.queue <- Array.make n 0;
    (* Fresh marks are all 0; restarting the epoch keeps the guard
       [mark.(v) = epoch] false until a vertex is discovered. *)
    ws.epoch <- 0
  end

(* Adjacency is read through the flat {!Broker_graph.View.t} record, as
   [Bfs.run_view] does: a dirty vertex reads its override segment, every
   other vertex the base CSR. Discovery order — and so every parent — is
   the CSR order of the first-discovering vertex, so the path equals the
   reference list BFS of test/oracle_dominated.ml; stopping once [v] is
   marked changes no parent on the path to it. *)
let[@brokercheck.noalloc] search ws vw ~live u v =
  let n = vw.Broker_graph.View.n in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Dominating.search: vertex out of range";
  if Array.length live < n then
    invalid_arg "Dominating.search: live array shorter than the view";
  ensure ws n;
  ws.epoch <- ws.epoch + 1;
  ws.src <- u;
  let epoch = ws.epoch in
  let mark = ws.mark and parent = ws.parent and queue = ws.queue in
  let off = vw.Broker_graph.View.off and adj = vw.Broker_graph.View.adj in
  let ov = vw.Broker_graph.View.overlaid in
  let dirty = vw.Broker_graph.View.dirty in
  let xoff = vw.Broker_graph.View.xoff and xadj = vw.Broker_graph.View.xadj in
  mark.(u) <- epoch;
  parent.(u) <- -1;
  queue.(0) <- u;
  let head = ref 0 and tail = ref 1 in
  let found = ref (u = v) in
  let i = ref 0 and hi = ref 0 in
  while !head < !tail && not !found do
    let x = Array.unsafe_get queue !head in
    incr head;
    let lx = Array.unsafe_get live x in
    let dx = ov && Array.unsafe_get dirty x in
    let a = if dx then xadj else adj in
    if dx then begin
      i := Array.unsafe_get xoff x;
      hi := Array.unsafe_get xoff (x + 1)
    end
    else begin
      i := Array.unsafe_get off x;
      hi := Array.unsafe_get off (x + 1)
    end;
    while !i < !hi && not !found do
      let y = Array.unsafe_get a !i in
      if Array.unsafe_get mark y <> epoch && (lx || Array.unsafe_get live y)
      then begin
        Array.unsafe_set mark y epoch;
        Array.unsafe_set parent y x;
        Array.unsafe_set queue !tail y;
        incr tail;
        if y = v then found := true
      end;
      incr i
    done
  done;
  !found

let path ws ~src ~dst =
  if dst < 0 || dst >= ws.cap || src <> ws.src || ws.mark.(dst) <> ws.epoch
  then invalid_arg "Dominating.path: target not reached from source";
  let k = ref 0 and x = ref dst in
  while !x <> src do
    x := ws.parent.(!x);
    incr k
  done;
  let out = Array.make (!k + 1) src in
  x := dst;
  for j = !k downto 1 do
    out.(j) <- !x;
    x := ws.parent.(!x)
  done;
  out

(* The closure-predicate wrappers keep one workspace and one liveness
   scratch per domain, so concurrent callers on different domains never
   share them. Filling [live] costs O(n) per call — the price of the
   closure signature; hot callers hold their own workspace instead. *)
type scratch = { ws : workspace; mutable live : bool array }

let scratch = Domain.DLS.new_key (fun () -> { ws = workspace (); live = [||] })

let find_dominated_path_view vw ~is_broker u v =
  let s = Domain.DLS.get scratch in
  let n = Broker_graph.View.n vw in
  if Array.length s.live < n then s.live <- Array.make n false;
  let live = s.live in
  for x = 0 to n - 1 do
    live.(x) <- is_broker x
  done;
  if search s.ws vw ~live u v then Array.to_list (path s.ws ~src:u ~dst:v)
  else []

let find_dominated_path g ~is_broker u v =
  find_dominated_path_view (Broker_graph.View.of_graph g) ~is_broker u v

type broker_only = {
  broker_only_pairs : float;
  saturated_pairs : float;
  ratio : float;
}

let broker_only_fraction ~rng ~sources g ~brokers =
  let n = G.n g in
  let is_broker = Connectivity.of_brokers ~n brokers in
  (* Components of the broker-induced subgraph. *)
  let uf = Broker_util.Union_find.create n in
  Array.iter
    (fun b -> G.iter_neighbors g b (fun w -> if is_broker w then ignore (Broker_util.Union_find.union uf b w)))
    brokers;
  let comp_id = Hashtbl.create 64 in
  let next_id = ref 0 in
  let id_of root =
    match Hashtbl.find_opt comp_id root with
    | Some id -> id
    | None ->
        let id = !next_id in
        incr next_id;
        Hashtbl.replace comp_id root id;
        id
  in
  (* Per-vertex list of adjacent broker components (deduplicated). *)
  let adj_comps =
    Array.init n (fun v ->
        let acc = ref [] in
        let push b =
          let id = id_of (Broker_util.Union_find.find uf b) in
          if not (List.mem id !acc) then acc := id :: !acc
        in
        if is_broker v then push v;
        G.iter_neighbors g v (fun w -> if is_broker w then push w);
        Array.of_list !acc)
  in
  let n_comps = !next_id in
  let mark = Array.make (max n_comps 1) (-1) in
  let k = min sources n in
  let srcs = Broker_util.Sampling.without_replacement rng ~n ~k in
  let broker_only = ref 0 and total = ref 0 in
  Array.iteri
    (fun stamp u ->
      Array.iter (fun c -> mark.(c) <- stamp) adj_comps.(u);
      for v = 0 to n - 1 do
        if v <> u then begin
          incr total;
          if Array.exists (fun c -> mark.(c) = stamp) adj_comps.(v) then
            incr broker_only
        end
      done)
    srcs;
  (* Every sampled source runs over the same dominated subgraph: project
     once and count reached vertices straight off the engine workspace. *)
  let pg =
    Broker_graph.Projected.graph (Broker_graph.Projected.project g ~is_broker)
  in
  let ws = Broker_graph.Bfs.workspace () in
  let saturated = ref 0 in
  Array.iter
    (fun u ->
      Broker_graph.Bfs.run ws pg u;
      saturated := !saturated + (Broker_graph.Bfs.reached ws - 1))
    srcs;
  let ftotal = float_of_int (max 1 !total) in
  let broker_only_pairs = float_of_int !broker_only /. ftotal in
  let saturated_pairs = float_of_int !saturated /. ftotal in
  {
    broker_only_pairs;
    saturated_pairs;
    ratio = (if saturated_pairs = 0.0 then 0.0 else broker_only_pairs /. saturated_pairs);
  }
