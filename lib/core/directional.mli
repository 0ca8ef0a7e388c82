(** Business-relationship-aware (directional) connectivity — Fig. 5b/5c.

    Under real AS economics a path must be valley-free (Gao–Rexford): zero
    or more customer→provider hops, at most one peering hop, then zero or
    more provider→customer hops. IXP fabrics are transparent: entering an
    IXP does not consume the peering transition, leaving it toward an AS
    does. The broker restriction composes with this — every hop still needs
    a broker endpoint.

    "Changing an inter-broker connection to bidirectional" (Fig. 5b) marks a
    broker–broker edge as freely traversable in both directions at any path
    phase, modelling the mutual-transit agreement the brokerage coalition
    signs internally. *)

type upgrades
(** A set of undirected edges upgraded to free traversal: one bit per
    CSR arc of the graph it was built on, plus one bit per vertex with an
    upgraded arc. Upgrades are tied to that graph (by physical identity);
    every function below raises [Invalid_argument] when given upgrades
    built on another graph. {!no_upgrades} fits every graph. *)

val no_upgrades : upgrades

val upgrade_broker_edges :
  rng:Broker_util.Xrandom.t ->
  Broker_topo.Topology.t ->
  brokers:int array ->
  fraction:float ->
  upgrades
(** Uniformly sample [fraction] of the broker–broker edges. *)

val upgrade_count : upgrades -> int

val distances :
  ?upgrades:upgrades ->
  Broker_topo.Topology.t ->
  is_broker:(int -> bool) ->
  int ->
  int array
(** [distances topo ~is_broker src]: the valley-free, B-dominated hop
    distance from [src] to every vertex ([-1] when unreachable) — the
    per-source BFS underneath {!curve_sampled}.

    The BFS runs over (vertex, phase) states. An ascending state scans
    every arc of its vertex; a descending state reads only its vertex's
    [customers] (see {!Broker_topo.Topology.t}) and upgraded arcs, the
    only arcs a descent may take. Its scratch (a state-seen byte map and
    a queue, 2n entries each) is a per-domain workspace reused by every
    call on that domain.
    @raise Invalid_argument when [src] is out of range. *)

val curve_sampled :
  ?l_max:int ->
  ?upgrades:upgrades ->
  ?source_set:int array ->
  rng:Broker_util.Xrandom.t ->
  sources:int ->
  Broker_topo.Topology.t ->
  is_broker:(int -> bool) ->
  Connectivity.curve
(** l-hop E2E connectivity where paths must be valley-free (modulo upgraded
    edges) and B-dominated. Edges without a recorded relation are treated as
    peering. [source_set] pins the BFS sources (common random numbers when
    comparing broker sets or upgrade levels); otherwise [sources] are drawn
    from [rng].

    A vertex counts at the hop distance of its first product state
    discovered, the shorter of its two phases; no per-source distance
    array is built. Sources are strided over the domains of
    {!Broker_util.Parallel.strided} (the [REPRO_DOMAINS] budget; fewer
    than four sources stay on the calling domain), each domain sweeping
    on its own workspace, and every tally is an integer count, so the
    curve is bit-identical under any [REPRO_DOMAINS].
    @raise Invalid_argument when [l_max < 0] or a pinned source is out
    of range. *)

val saturated_sampled :
  ?upgrades:upgrades ->
  ?source_set:int array ->
  rng:Broker_util.Xrandom.t ->
  sources:int ->
  Broker_topo.Topology.t ->
  is_broker:(int -> bool) ->
  float
