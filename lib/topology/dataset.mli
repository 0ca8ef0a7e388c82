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
(** Inverse of [save]. An edge given twice keeps its last labelled
    relation.
    @raise Failure ["Dataset.load: line N: ..."] on malformed input: a
    bad header or negative count, an unknown kind or relation code, a
    node id or edge endpoint outside [0, n), a self-loop, or more edge
    lines than the header declares. *)
