(** Node and edge metadata of the AS-level Internet topology.

    Node kinds follow the classification the paper borrows from CAIDA
    (Transit/Access, Content, Enterprise) plus Tier-1 transit and IXPs.
    Edge relations follow the Gao business-relationship model: a link is
    either customer-to-provider, settlement-free peering, or an IXP
    membership (AS connected to an IXP fabric). *)

type kind =
  | Tier1  (** top-level transit provider, member of the tier-1 clique *)
  | Transit  (** regional/national transit & access provider *)
  | Access  (** eyeball/access network *)
  | Content  (** content provider / CDN *)
  | Enterprise  (** enterprise stub network *)
  | Ixp  (** Internet eXchange Point fabric, modelled as a node *)

val kind_to_string : kind -> string
val kind_equal : kind -> kind -> bool
val is_as : kind -> bool
(** Every kind except [Ixp]. *)

val all_kinds : kind list

type relation =
  | Customer_provider
      (** the canonical lower endpoint pays the higher one; orientation is
          stored by {!Relations.add_c2p} *)
  | Peer
  | Ixp_member

(** {1 Per-arc relation labels}

    {!Relations.arc_labels} resolves every directed CSR arc [u → v] (see
    {!Broker_graph.Graph.arc_index}) to one byte, read from [u]'s side. *)

val arc_none : char
(** No relation recorded for the edge. *)

val arc_up : char
(** Customer → provider: [u] buys transit from [v]. *)

val arc_down : char
(** Provider → customer. *)

val arc_peer : char
(** Settlement-free peering. *)

val arc_ixp : char
(** IXP membership (either direction). *)

(** Business relations of all edges of a topology. Lookup is
    orientation-aware: [customer_of t u v] answers whether [u] buys transit
    from [v]. *)
module Relations : sig
  type t

  val create : unit -> t
  val add_c2p : t -> customer:int -> provider:int -> unit
  val add_peer : t -> int -> int -> unit
  val add_ixp_member : t -> as_node:int -> ixp:int -> unit

  val find : t -> int -> int -> relation option
  (** Relation of the undirected edge, if recorded. *)

  val customer_of : t -> int -> int -> bool
  (** [customer_of t u v] iff the edge is C2P with [u] the customer. *)

  val provider_of : t -> int -> int -> bool
  val peers : t -> int -> int -> bool
  (** True for both [Peer] and [Ixp_member] edges. *)

  val cardinal : t -> int

  val stamp : t -> int
  (** Mutation stamp: every [add_*] call increments it. *)

  val arc_labels : t -> Broker_graph.Graph.t -> Bytes.t
  (** [arc_labels t g] has one byte per arc of [g] ([Graph.arcs g]
      bytes), indexed like [Graph.csr_adj g]: one of {!arc_none},
      {!arc_up}, {!arc_down}, {!arc_peer}, {!arc_ixp}. Built in one pass
      over the table on first use and memoised for the pair
      ([g] by physical identity, {!stamp}); a later [add_*] or a
      different graph triggers a rebuild. Each build bumps the
      deterministic counter [topo.arc_relations.builds]. Builds are
      serialised, so concurrent callers share one build. The result is
      shared: callers must not mutate it. *)
end
