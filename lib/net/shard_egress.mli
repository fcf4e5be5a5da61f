(** Packet hand-off across a network (and usually shard) boundary.

    [wire] replaces [link]'s delivery: a packet completing transmission
    is flattened to plain values, its record is released into
    [src_network]'s pool, and one latency later a fresh record is
    acquired from [dst_network]'s pool and delivered to [entry] (an
    ordinary {!Node.receive}, so [entry] forwards it under the
    destination-side route).

    Pool ownership: a packet record never leaves its network. The
    source pool's [outstanding] drops at egress time; the in-flight
    message carries only scalars plus the (immutable) payload and the
    destination route array, so [created]/[in_pool]/[peak] on both
    pools behave exactly as if the packet had been consumed here and a
    new one originated there. The carried [uid], [flow], [src], [size]
    and hop count survive the crossing.

    [reroute packet] runs at egress, on the source shard, and must
    return the destination-network route array (ending in the returned
    destination node id) — typically a prebuilt shared array, so the
    boundary allocates only the hand-off closure.

    Timing: arrival is [now +. latency] with the same float arithmetic
    on both [via] forms, so swapping a [Local] boundary (same domain,
    e.g. [--domains 1]) for a [Remote] one (a {!Sim.Sharded_engine}
    channel) never changes simulated timestamps. The link itself should
    carry [delay_s = 0]; the boundary latency is the propagation delay
    — and, for [Remote], the lookahead that makes the hand-off safe. *)

(** How the flattened packet travels: on the same engine with an
    explicit latency, or over an inter-shard channel (which carries its
    own latency). *)
type via =
  | Local of Sim.Engine.t * float
  | Remote of Sim.Sharded_engine.t * Sim.Sharded_engine.channel

type t

(** [wire ~via ~link ~src_network ~dst_network ~entry ~reroute] installs
    the boundary on [link] (replacing its deliver callback) and returns
    a handle for statistics. Raises [Invalid_argument] on a
    non-positive [Local] latency. *)
val wire :
  via:via ->
  link:Link.t ->
  src_network:Network.t ->
  dst_network:Network.t ->
  entry:Node.t ->
  reroute:(Packet.t -> int array * int) ->
  t

(** Packets that crossed this boundary. *)
val crossings : t -> int

(** The boundary's hand-off latency, seconds. *)
val wire_latency : t -> float
