(** Bit-parallel multi-source BFS (MS-BFS).

    The connectivity evaluators run one BFS per source over one shared
    (projected) graph for hundreds of sources. The scalar engine
    ({!Bfs.run}) already makes each run closure- and allocation-free;
    this module removes the per-source sweeps themselves: up to
    {!lanes} sources are packed one per bit into a machine word per
    vertex, and a single sweep advances *all* of them — the frontier
    word of a vertex is AND-NOT-ed against each neighbor's [seen] word
    and the surviving bits OR-ed in, so a 192-source evaluation costs a
    handful of word-parallel sweeps instead of 192 scalar traversals.

    Word layout: lane [b] of a batch is the BFS rooted at
    [sources.(lo + b)]; bit [b] of a vertex's [seen] word says lane
    [b]'s traversal has settled it, and the depth at which a bit first
    appears is exactly that lane's scalar BFS distance (all lanes
    advance in lock step, so first arrival = shortest path). Per-level
    totals are popcounts of the newly settled words — no per-bit loop,
    no per-lane distance array.

    Sweeps switch between top-down frontier expansion and bottom-up
    probing with the same thresholds as {!Bfs.run}. Both directions
    settle identical bits at identical depths, so every query below is
    independent of the heuristic — which keeps batched evaluations
    bitwise identical to their scalar and generic reference
    implementations. *)

val lanes : int
(** Sources packed per word: 63 ({!Broker_util.Bitset.bits_per_word} —
    OCaml native ints). *)

type workspace
(** Reusable scratch for {!run} (word arrays and queues). Every word is
    zero between runs, so a sweep reads a neighbor's word with no stamp
    guard; a run clears only what the previous run set (its settled
    vertices) and what it sets itself (each expanded frontier), so the
    marginal cost of a batch is its sweeps. Not thread-safe: one domain
    at a time may run on a workspace. *)

val workspace : unit -> workspace
(** An empty workspace; arrays are sized lazily by the first {!run} (and
    regrown if a later run presents a larger graph). *)

val with_workspace : (workspace -> 'a) -> 'a
(** [with_workspace f] runs [f] on a workspace borrowed from a
    process-wide, domain-safe free list (a fresh one when the list is
    empty) and returns it to the list when [f] returns, so repeated
    evaluations reuse their sweep arrays. [f] must not keep the
    workspace or use it after returning; if [f] raises, the workspace is
    dropped rather than returned. *)

val run :
  workspace -> Graph.t -> ?max_depth:int -> int array -> lo:int -> len:int ->
  unit
(** [run ws g sources ~lo ~len] traverses [g] from the batch
    [sources.(lo) .. sources.(lo + len - 1)], one lane each, leaving the
    results in [ws]. [max_depth] (default unbounded) stops expanding
    beyond that many hops. Duplicate sources are distinct lanes.
    Queries below refer to the most recent run and are invalidated by
    the next one.
    @raise Invalid_argument when [len] is outside [1 .. lanes], the
    range escapes [sources], or a source is outside [0 .. n-1]. *)

val run_view :
  workspace -> View.t -> ?max_depth:int -> ?depths:Bytes.t array ->
  int array -> lo:int -> len:int -> unit
(** {!run} over a {!View.t} — the same sweeps reading through the
    base-or-overlay segment selector, so dynamic-topology callers
    traverse a {!Delta} overlay without compacting it first.

    [depths], when given, also records every lane's BFS depths: row
    [depths.(lo + b)] receives lane [b], one byte per vertex — the depth
    at which the lane settled it when that is at most
    {!max_recorded_depth}, {!unreached} otherwise (the source gets 0).
    Vertices beyond {!max_recorded_depth} read as {!unreached}, so a
    caller that needs exact rows checks [max_level ws <=
    max_recorded_depth]. Without [depths] a level pays one test.
    @raise Invalid_argument when a row of the batch is missing or
    shorter than the graph. *)

val max_recorded_depth : int
(** 254: the deepest level a depth row can hold. *)

val unreached : char
(** ['\255']: the depth-row byte of a vertex with no recorded depth. *)

val batch_lanes : workspace -> int
(** Lanes of the last run ([len]). *)

val max_level : workspace -> int
(** Deepest level any lane settled in the last run (0 when every source
    settled only itself). *)

val level_pairs : workspace -> int -> int
(** [level_pairs ws d]: (lane, vertex) pairs settled at depth exactly
    [d], summed over the batch — [level_pairs ws 0 = batch_lanes ws],
    and for [d >= 1] the batched counterpart of summing
    {!Bfs.level_count} over the batch's scalar runs. Valid for [d] in
    [0 .. max_level ws].
    @raise Invalid_argument outside that range. *)

val reached_pairs : workspace -> int
(** Total (lane, vertex) pairs settled at depth [>= 1] — the batched
    sum of per-source reached counts, sources themselves excluded. *)

val settled_bits : workspace -> int -> int
(** [settled_bits ws v]: the lanes whose traversal settled [v] (any
    depth, source included), as a bit word; [0] when untouched. The
    word-level view tests and word-parallel callers consume directly.
    @raise Invalid_argument when [v] is outside the workspace. *)

val lane_counts_into : workspace -> keep:(int -> bool) -> int array -> unit
(** [lane_counts_into ws ~keep out] sets [out.(b)], for each lane [b] of
    the last run, to the number of vertices lane [b] settled (any depth,
    source included) that satisfy [keep] — the per-lane tally behind
    batched marginal-gain probes (CELF/MaxSG seed their heaps with
    [keep] = "not yet covered"). Entries beyond the batch are left
    untouched. Cost: one [keep] test per distinct settled vertex plus
    one bit-extraction step per settled (lane, vertex) pair.
    @raise Invalid_argument when [out] is shorter than the batch. *)
