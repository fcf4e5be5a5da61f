(** Free list of {!Packet.t} records.

    In steady state a simulation holds a bounded number of packets in
    flight, so recycling delivered and dropped packets means the run
    allocates only as many records as its peak in-flight population —
    the per-packet path allocates nothing.

    Ownership discipline: whoever consumes a packet (endpoint handler
    completion, stranding, loss or queue drop) releases it exactly once.
    [release] installs {!Packet.Recycled} as the payload, so a second
    release raises and a reader of a recycled packet sees the sentinel
    rather than stale data. *)

type t

val create : unit -> t

(** [acquire t ~uid ... payload] returns a packet initialised exactly as
    {!Packet.create} would, reusing a recycled record when one is
    available. *)
val acquire :
  t ->
  uid:int ->
  flow:int ->
  src:int ->
  dst:int ->
  size:int ->
  route:int array ->
  Packet.payload ->
  Packet.t

(** [release t p] returns [p] to the free list. Raises
    [Invalid_argument] if [p] was already released. *)
val release : t -> Packet.t -> unit

(** Packets currently on the free list. *)
val in_pool : t -> int

(** Fresh records ever allocated — in a fully pooled run this equals the
    peak in-flight population, not the packet count. *)
val created : t -> int

(** Packets acquired and not yet released. *)
val outstanding : t -> int

val peak_outstanding : t -> int

(** The metric handles behind the int accessors above, for lifting into
    an [Obs.Registry] snapshot. *)

val created_counter : t -> Obs.Metrics.Counter.t

(** Gauge whose peak is {!peak_outstanding}. *)
val outstanding_gauge : t -> Obs.Metrics.Gauge.t

val in_pool_gauge : t -> Obs.Metrics.Gauge.t
