(* Reference implementation for the dominated-path differential tests:
   the allocating list BFS that Broker_core.Dominating used before the
   workspace kernel, kept verbatim. Each call allocates its own parent,
   seen and queue arrays and tests every arc through a closure predicate;
   the kernel must return the same path (first-discovered parents in CSR
   order) for every input. *)

let find_dominated_path_view vw ~is_broker u v =
  let edge_ok = Broker_core.Connectivity.edge_ok ~is_broker in
  let n = Broker_graph.View.n vw in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  seen.(u) <- true;
  queue.(!tail) <- u;
  incr tail;
  while !head < !tail && not seen.(v) do
    let x = queue.(!head) in
    incr head;
    Broker_graph.View.iter_neighbors vw x (fun y ->
        if (not seen.(y)) && edge_ok x y then begin
          seen.(y) <- true;
          parent.(y) <- x;
          queue.(!tail) <- y;
          incr tail
        end)
  done;
  if not seen.(v) then []
  else begin
    let rec walk x acc = if x = u then u :: acc else walk parent.(x) (x :: acc) in
    walk v []
  end
