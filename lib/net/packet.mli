(** Simulated network packets.

    The payload type is extensible so that protocol layers (TCP segments
    and acknowledgements, test probes) can be carried without the network
    substrate depending on them.

    Forwarding is source-routed: [route] is an immutable array of the
    node ids to traverse after the originating node, ending with the
    destination, and [next_hop] is a cursor into it. Because forwarding
    advances only the cursor, one route array can be shared by every
    packet of a fixed-route flow for the lifetime of a run — the
    forwarding path allocates nothing.

    All fields are mutable so that records can be recycled through a
    {!Packet_pool}; code outside the pool should treat a packet it did
    not acquire as read-only. *)

type payload = ..

(** Opaque test payload carrying an integer tag. *)
type payload += Raw of int

(** Sentinel installed by {!Packet_pool.release}: a packet whose payload
    reads [Recycled] is on the free list and must not be used. *)
type payload += Recycled

type t = {
  mutable uid : int;  (** unique per network, for tracing *)
  mutable flow : int;  (** flow identifier, used to dispatch at the endpoint *)
  mutable src : int;  (** originating node id *)
  mutable dst : int;  (** destination node id *)
  mutable size : int;  (** wire size in bytes, headers included *)
  mutable payload : payload;
  mutable route : int array;
      (** node ids to traverse (excluding the originating node); the
          last element is [dst]. Shared and never mutated — forwarding
          state lives in [next_hop]. *)
  mutable next_hop : int;  (** cursor: index into [route] of the next hop *)
  mutable hops : int;  (** links traversed so far *)
}

(** [create ~uid ~flow ~src ~dst ~size ~route payload] builds a
    packet with the cursor at the first hop. [route] must end with
    [dst] (checked in O(1)). Set [TCP_PR_DEBUG_PACKETS=1] to also
    validate every element of the route per packet. *)
val create :
  uid:int ->
  flow:int ->
  src:int ->
  dst:int ->
  size:int ->
  route:int array ->
  payload ->
  t

(** [reinit t ...] overwrites every field of [t] as {!create} would,
    resetting the cursor and hop count. Used by {!Packet_pool} when
    recycling a record. *)
val reinit :
  t ->
  uid:int ->
  flow:int ->
  src:int ->
  dst:int ->
  size:int ->
  route:int array ->
  payload ->
  unit

(** [route_exhausted t] is true when every hop of the route has been
    consumed (a delivered packet, or a malformed one marked stranded). *)
val route_exhausted : t -> bool

val pp : Format.formatter -> t -> unit
