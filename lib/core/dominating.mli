(** B-dominating path predicates and construction (Definition 1), plus the
    Fig. 5a "90% of E2E connections only use nodes in the broker set"
    analysis. *)

val is_dominated_path : is_broker:(int -> bool) -> int list -> bool
(** Every hop of the path has at least one broker endpoint. Paths of fewer
    than 2 vertices are vacuously dominated. *)

(** {2 Search kernel}

    One breadth-first search over a {!Broker_graph.View.t} serves every
    dominated-path caller. Liveness is a [bool array] indexed by vertex
    ([live.(x)]: [x] is a broker that may dominate a hop), so the inner
    loop tests two array cells per arc and calls no closure. The search
    keeps its scratch in a reusable {!workspace} and allocates nothing
    once the workspace has grown to the graph. *)

type workspace
(** Epoch-stamped BFS scratch: a discovery mark, a parent and a queue
    slot per vertex. Arrays grow on demand; each search bumps the stamp
    instead of clearing them. Not safe to share between domains. *)

val workspace : unit -> workspace
(** An empty workspace; the first search sizes it. *)

val search :
  workspace -> Broker_graph.View.t -> live:bool array -> int -> int -> bool
(** [search ws vw ~live u v]: breadth-first from [u], stepping x→y only
    when [live.(x) || live.(y)], and stopping as soon as [v] is
    discovered. Parents are first-discovered in CSR order, so the path
    read by {!path} is the hop-shortest dominated path that
    {!find_dominated_path_view} has always returned. [u = v] is found
    with no step taken.
    @raise Invalid_argument when [u] or [v] is not a vertex of [vw] or
    [live] is shorter than [View.n vw]. *)

val path : workspace -> src:int -> dst:int -> int array
(** The path [src … dst] found by the last {!search} of [ws], which must
    have started at [src] and reached [dst]. Counts the hops first, so
    the result is the only allocation.
    @raise Invalid_argument when the last search did not start at [src]
    or did not reach [dst]. *)

(** {2 Closure-predicate wrappers} *)

val find_dominated_path :
  Broker_graph.Graph.t -> is_broker:(int -> bool) -> int -> int -> int list
(** Shortest B-dominated path between the endpoints, [[]] when none
    exists. *)

val find_dominated_path_view :
  Broker_graph.View.t -> is_broker:(int -> bool) -> int -> int -> int list
(** {!find_dominated_path} over a {!Broker_graph.View.t}, so callers can
    route against a live {!Broker_graph.Delta} overlay. Runs {!search} on
    a workspace local to the calling domain, with a liveness scratch
    filled from [is_broker] in O(n); callers that route many pairs under
    one liveness should hold their own workspace and [live] array
    instead. *)

type broker_only = {
  broker_only_pairs : float;
      (** fraction of all ordered pairs connected through broker-internal
          paths only (intermediate hops all brokers) *)
  saturated_pairs : float;
      (** fraction connected through any dominated path *)
  ratio : float;
      (** [broker_only_pairs / saturated_pairs] — the paper's ">90%"
          statistic *)
}

val broker_only_fraction :
  rng:Broker_util.Xrandom.t ->
  sources:int ->
  Broker_graph.Graph.t ->
  brokers:int array ->
  broker_only
(** A pair [(u,v)] counts as broker-only when some connected component of
    the broker-induced subgraph is adjacent to (or contains) both [u] and
    [v] — i.e. traffic enters the broker mesh at the first hop and leaves it
    at the last, paying no non-broker transit. *)
