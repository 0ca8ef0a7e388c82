(** Materialized broker-dominated subgraphs.

    For a broker set [B], the paper's evaluation only ever traverses the
    edge [(u,v)] when [u ∈ B] or [v ∈ B] (the "B_A ⊙ A" operator of
    Section 5.2). The generic traversals re-test that predicate on every
    edge of every BFS; [project] instead materializes the dominated
    subgraph once — a single O(|V| + |E|) pass producing a compact CSR with
    exactly the dominated edges — after which every per-source BFS is
    closure-free and touches only edges that can actually be used.
    Amortized over the hundreds of sources of one connectivity evaluation,
    the projection pays for itself many times over.

    Vertex ids are shared with the source graph (non-dominated vertices
    simply have empty adjacency), so sources, distances and histograms need
    no translation. A projection is immutable and snapshots the broker set
    at [project] time: if the broker set changes, project again. *)

type t

type scratch
(** Reusable output buffers for {!project_into}: offsets, adjacency and a
    membership byte per vertex, grown on demand (adjacency to the viewed
    graph's arc count) and never shrunk. Not thread-safe: one domain at a
    time may project into a scratch. *)

val scratch : unit -> scratch
(** An empty scratch; the first {!project_into} sizes it. *)

val project_into : scratch -> View.t -> is_broker:(int -> bool) -> View.t
(** [project_into s vw ~is_broker] evaluates [is_broker] once per vertex
    and writes exactly the edges with a broker endpoint into [s], in one
    pass over [vw]'s adjacency, returning a base view of the result. The
    view borrows [s]'s buffers: it stays valid until the next projection
    into [s]. Sorted/deduplicated/symmetric CSR invariants are inherited
    from [vw], not recomputed. A steady-state call allocates only the
    view record. *)

val local : unit -> scratch
(** The calling domain's scratch, shared by {!project} and
    {!project_view}: a view {!project_into} returned for it is valid
    until the next projection of any kind on the same domain. *)

val project : Graph.t -> is_broker:(int -> bool) -> t
(** [project g ~is_broker]: {!project_into} the calling domain's
    scratch, then copied into an exact-length CSR the result owns — for
    callers that keep the projected graph. *)

val project_view : View.t -> is_broker:(int -> bool) -> t
(** {!project} over a {!View.t}: projects a {!Delta} overlay directly,
    without compacting it into a fresh CSR first. *)

val graph : t -> Graph.t
(** The dominated subgraph, on the same vertex ids as the source graph.
    BFS distances over it equal [Bfs.distances_filtered] distances over the
    source graph under the dominated-edge predicate (the property the
    qcheck suite pins down). *)

val is_broker : t -> int -> bool
(** The broker membership snapshot the projection was built from. *)

val broker_count : t -> int

val arcs : t -> int
(** Directed arcs kept by the projection (2x its undirected edge count). *)
