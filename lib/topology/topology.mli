(** A labelled AS-level topology: the graph plus node kinds, tiers, display
    names and business relations. This is the composite structure the
    experiments consume.

    The record is private: {!make} is the only constructor, so the labels
    always match the graph they were written for. To change the graph,
    build a new topology. *)

type csr = { off : int array; adj : int array }
(** A directed adjacency in CSR form: the targets of [u] are
    [adj.(off.(u)) .. adj.(off.(u+1) - 1)]. Read-only. *)

type t = private {
  graph : Broker_graph.Graph.t;
  kinds : Node_meta.kind array;
  tiers : int array;
      (** 1 = tier-1, 2 = transit, 3 = stub levels, 0 = IXP *)
  names : string array;
  arc_relations : Bytes.t;
      (** The business relation of every directed arc of [graph], one
          byte per arc ([Graph.arcs graph] bytes) indexed like
          [Broker_graph.Graph.csr_adj]: {!Node_meta.arc_up} when the
          arc's tail is the customer, and so on. Callers must not mutate
          it. *)
  customers : csr;
      (** The arcs labelled {!Node_meta.arc_down}, in CSR order: the
          targets of [u] are its customers. Derived from
          [arc_relations] by {!make}, so a descending traversal reads
          only the provider→customer arcs. *)
  providers : csr;
      (** The arcs labelled {!Node_meta.arc_up}, in CSR order: the
          targets of [u] are its providers; the mirror of [customers]. *)
}

val make :
  kinds:Node_meta.kind array ->
  tiers:int array ->
  names:string array ->
  n:int ->
  (int * int * char) array ->
  t
(** [make ~kinds ~tiers ~names ~n edges] builds the graph on [n] vertices
    from [edges] and writes its arc labels. An edge [(u, v, l)] carries
    the label [l] of the arc [u → v]; the arc [v → u] gets the mirror
    label ({!Node_meta.arc_up} ↔ {!Node_meta.arc_down}, the others
    unchanged). When an edge is given more than once, the last label other
    than {!Node_meta.arc_none} wins. It then indexes the labels into
    [customers] and [providers] (O(arcs)).
    @raise Invalid_argument when a metadata array is not of length [n],
    an edge is a self-loop, or a label is not one of the five
    [Node_meta.arc_*] bytes; and as {!Broker_graph.Graph.of_edges} on an
    endpoint outside [0..n-1]. *)

val iter_labelled_edges : t -> (int -> int -> char -> unit) -> unit
(** [iter_labelled_edges t f] calls [f u v l] on each undirected edge
    once, with [u < v] and [l] the label of the arc [u → v], in
    {!Broker_graph.Graph.iter_edges} order. *)

val n : t -> int
val is_ixp : t -> int -> bool
val is_as : t -> int -> bool
val ixps : t -> int array
val ases : t -> int array

val count_kind : t -> Node_meta.kind -> int

val as_as_edges : t -> int
(** Number of AS–AS connections (paper's Table 2 row). *)

val as_ixp_edges : t -> int
(** Number of AS–IXP connections. *)

val with_ases_only : t -> t * int array
(** Restriction to AS nodes ("ASes without IXPs" in Table 3), keeping
    every AS–AS edge's label. Returns the restricted topology and the
    mapping from new ids to old ids. *)

val tier1_members : t -> int array

val ixp_connected_fraction : t -> float
(** Fraction of ASes with at least one IXP membership (paper: 40.2%). *)
