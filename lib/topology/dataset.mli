(** Topology persistence and dataset summaries (paper Table 2). *)

type summary = {
  ixps : int;
  ases : int;
  max_connected_subgraph : int;
  as_as_connections : int;
  as_ixp_connections : int;
  ixp_connected_fraction : float;
}

val summarize : Topology.t -> summary

val pp_summary : Format.formatter -> summary -> unit

val save : path:string -> Topology.t -> unit
(** Plain-text format: one header line, then node lines
    [v kind tier name] and edge lines [u v rel]. *)

val load : path:string -> Topology.t
(** Inverse of [save]. Node lines must carry the ids [0 .. n-1] in
    order, as [save] writes them, and the file must hold exactly the
    header's node and edge counts; no array is sized from a header count
    before the lines back it. An edge given twice keeps its last labelled
    relation.
    @raise Failure ["Dataset.load: line N: ..."] on malformed input: a
    bad header or negative count, an unknown kind or relation code, a
    node id or edge endpoint outside [0, n), a node id out of order, a
    self-loop, more edge lines than the header declares, or an end of
    file before the header's node or edge count is reached. *)
