(** Topology growth / churn (reproduction extension).

    The Internet the paper measured kept growing; a broker set selected
    today must keep working tomorrow. [grow] extends a topology with new
    stub ASes attaching preferentially to the existing transit core —
    the same process the generator uses — so experiments can measure how a
    frozen broker set's coverage decays and how cheap incremental repair
    (topping up with {!Broker_core.Maxsg.grow}-style picks) is compared to
    reselection from scratch. Existing node ids are preserved: the old
    broker set remains valid in the grown topology. *)

val grow :
  rng:Broker_util.Xrandom.t ->
  Topology.t ->
  new_ases:int ->
  Topology.t
(** Append [new_ases] stub ASes (ids [n .. n+new_ases-1]) multihoming into
    the existing transit/tier-1 core with degree-preferential provider
    choice; a realistic share also joins IXPs. Old edges keep their
    labels; a new AS is the customer of each provider and an IXP member. *)
