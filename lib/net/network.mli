(** Topology container: nodes, links, source-routed forwarding, and
    path utilities.

    Nodes are identified by dense integer ids assigned by [add_node]
    (at most [2^20] nodes, so an ordered node pair packs into one int
    for adjacency lookups). Links are directed; [add_duplex] creates a
    symmetric pair. Packets carry an immutable route array and a cursor
    (see {!Packet}); each node reads its successor, advances the
    cursor, and hands the packet to the connecting link.

    The network owns a {!Packet_pool}; packets obtained from
    [make_packet] are recycled automatically when a link drops them or
    they strand at a node, and should be handed back with
    [release_packet] by the endpoint that consumes them. *)

type t

(** [create engine] returns an empty network driven by [engine]. *)
val create : Sim.Engine.t -> t

val engine : t -> Sim.Engine.t

(** The network's packet pool (exposed for statistics and tests). *)
val pool : t -> Packet_pool.t

(** [add_node t] allocates a fresh node. *)
val add_node : t -> Node.t

(** [add_nodes t n] allocates [n] fresh nodes. *)
val add_nodes : t -> int -> Node.t list

(** [node t id] looks a node up by id. Raises [Invalid_argument] on an
    unknown id. *)
val node : t -> int -> Node.t

val node_count : t -> int

(** [add_link t ~src ~dst ~bandwidth_bps ~delay_s ~capacity ?loss
    ?qdisc ()] creates a directed link and wires delivery to [dst]. At
    most one link may exist per ordered node pair. [qdisc] overrides the
    default drop-tail queue. *)
val add_link :
  t ->
  src:Node.t ->
  dst:Node.t ->
  bandwidth_bps:float ->
  delay_s:float ->
  capacity:int ->
  ?loss:Loss_model.t ->
  ?qdisc:Qdisc.t ->
  ?jitter:Sim.Rng.t * float ->
  unit ->
  Link.t

(** [add_duplex t ...] creates both directions with identical parameters
    and returns [(forward, reverse)]. *)
val add_duplex :
  t ->
  src:Node.t ->
  dst:Node.t ->
  bandwidth_bps:float ->
  delay_s:float ->
  capacity:int ->
  ?loss:Loss_model.t ->
  ?jitter:Sim.Rng.t * float ->
  unit ->
  Link.t * Link.t

(** [link_between t ~src ~dst] finds the directed link, if any. *)
val link_between : t -> src:int -> dst:int -> Link.t option

val links : t -> Link.t list

(** [fresh_uid t] returns a network-unique packet id. *)
val fresh_uid : t -> int

(** [make_packet t ~flow ... payload] builds a packet with a fresh uid,
    reusing a pooled record when one is available. The caller (or the
    network, on drop/strand) must eventually [release_packet] it. *)
val make_packet :
  t ->
  flow:int ->
  src:int ->
  dst:int ->
  size:int ->
  route:int array ->
  Packet.payload ->
  Packet.t

(** [release_packet t p] recycles a consumed packet into the pool.
    Raises [Invalid_argument] on a double release. *)
val release_packet : t -> Packet.t -> unit

(** [originate t ~from p] starts forwarding packet [p] from node [from]:
    the first hop of [p.route] is consumed immediately. *)
val originate : t -> from:Node.t -> Packet.t -> unit

(** [shortest_path t ~src ~dst] computes a minimum-hop route (excluding
    [src], ending with [dst]) by breadth-first search, or [None] if
    unreachable. Deterministic: neighbours are explored in link-creation
    order. *)
val shortest_path : t -> src:int -> dst:int -> int list option

(** Sum over links of packets dropped by full queues. *)
val total_queue_drops : t -> int

(** Sum over links of packets dropped by loss injection. *)
val total_injected_losses : t -> int
