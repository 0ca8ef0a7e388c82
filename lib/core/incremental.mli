(** Incremental dominated-connectivity under streaming topology updates.

    A tracker holds the l-hop connectivity curve of an evolving
    topology for a fixed broker set and source sample. Updates are
    applied as announce/withdraw operations; only the dominated subset
    (a broker endpoint) enters the projected overlay the evaluators
    sweep.

    Beside every source batch's integer tallies, the tracker keeps each
    source's exact BFS depths on the projected graph: one byte per
    (source, vertex) pair, so [n * Array.length sources] bytes (about
    10 MB for 192 sources on the 52k-node topology). {!create} records
    them during its MS-BFS sweep. {!apply} repairs them in place as a
    dynamic unit-weight BFS, one source at a time, on a single view of
    the new edge set: withdrawn edges first (read with the burst's
    announced arcs skipped; a vertex is affected when it loses every
    neighbour one level up that is itself unaffected; affected vertices
    are re-seated from the rest), then announced edges (decrease-only
    propagation from their endpoints). Every depth that changes moves
    one count in its batch's tallies, so a burst costs the (source,
    vertex) distances it changes rather than a re-sweep. A source whose
    repair scans more than about half of the projected graph is
    recomputed by one BFS instead. A batch whose BFS would go deeper
    than {!Broker_graph.Msbfs.max_recorded_depth} hops cannot be held
    in byte rows; it falls back to an MS-BFS re-sweep.

    Equivalence guarantee: {!curve} is bitwise identical to running
    {!Connectivity.eval_sources} from scratch on the compacted updated
    graph with the same [l_max], broker set and source array — both
    paths produce the same per-batch integer counts and share
    {!Connectivity.curve_of_counts} — for any [REPRO_DOMAINS].

    Single-writer: {!apply} is not domain-safe (fallback re-sweeps
    parallelize internally over read-only snapshots). *)

type t

type op =
  | Add of int * int  (** announce edge [(u, v)] *)
  | Remove of int * int  (** withdraw edge [(u, v)] *)

type stats = {
  applied : int;  (** ops that changed the dominated edge set *)
  noops : int;  (** dominated ops that were already satisfied *)
  ignored : int;  (** ops with no broker endpoint (outside the projection) *)
  sources_affected : int;
      (** sources whose depth row changed; every source of a re-swept
          batch counts *)
  batches_reevaluated : int;  (** batches re-swept because they run too deep *)
  batches_total : int;
}

val create :
  ?l_max:int ->
  Broker_graph.Graph.t ->
  is_broker:(int -> bool) ->
  sources:int array ->
  t
(** Project the base graph, then record every source's depth row and
    every batch's tallies in one MS-BFS evaluation. [l_max] defaults to
    10 as in {!Connectivity.eval_sources}. The source array is copied. *)

val apply : t -> op array -> stats
(** Apply an update burst and repair the depth rows and tallies. Ops
    take effect in order, and ops that cancel within the burst (an
    announce and a withdraw of the same pair) cost no repair. Returns
    the burst's statistics (also readable via {!last_stats}).
    @raise Invalid_argument when an endpoint is out of range. *)

val curve : t -> Connectivity.curve
(** Current connectivity curve, bitwise identical to a from-scratch
    {!Connectivity.eval_sources} on the updated topology. *)

val saturated : t -> float
(** [saturated] of {!curve}. *)

val last_stats : t -> stats
(** Statistics of the most recent {!apply} (zeros before the first). *)

val l_max : t -> int

val batches : t -> int
(** Source batches tracked ([ceil (sources / Msbfs.lanes)]). *)

val tallies : t -> (int array * int) array
(** Per-batch integer counts behind {!curve}, copied: pairs first
    reached at each depth [1 .. l_max] (index 0 unused), and pairs
    reached at any depth [>= 1]. *)
