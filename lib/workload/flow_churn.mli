(** Closed-loop many-flow churn workload.

    [flows] independent "users" each loop forever over a dumbbell pair:
    think (exponentially distributed), transfer (bounded-Pareto size in
    segments — mostly mice, bytes dominated by elephants), think again.
    Initial arrivals are staggered uniformly across [ramp_s], so the
    concurrent population ramps up to [flows] and stays there — the
    regime the timer wheel exists for: every in-flight packet of every
    active flow arms and cancels retransmission timers.

    Each slot owns one {!Tcp.Connection.t} for the whole run and runs
    its transfers on it in turn: a new transfer {!Tcp.Connection.recycle}s
    the connection in place, so per-flow state (sender rings, receiver
    reassembly and reordering histograms, timer cells) is allocated
    once per slot, not once per transfer. Only a quiescent connection
    is recycled — finished, with no timer armed and no flush or
    acknowledgement pending ({!Tcp.Connection.quiescent}); a slot whose
    connection is still winding down (e.g. a host-stack application
    reader draining its socket) builds a fresh one instead. Either way
    the run is the same.

    Determinism: each slot draws from its own {!Sim.Rng} stream (split
    from the caller's by slot index), and every transfer runs under a
    globally fresh flow id; a finished transfer detaches its flow id
    from both endpoints, so its late in-flight packets strand (and are
    counted) rather than leaking into a successor. Repeating a run with
    the same seed reproduces every arrival, size and flow id
    exactly. *)

type config = {
  flows : int;  (** concurrent user slots (>= 1) *)
  mean_think_s : float;  (** mean think time between transfers *)
  min_segments : int;  (** smallest transfer, in segments *)
  max_segments : int;  (** largest transfer, in segments *)
  size_alpha : float;  (** bounded-Pareto shape (smaller = heavier tail) *)
  ramp_s : float;  (** initial arrivals spread uniformly over [0, ramp_s) *)
}

(** 100 slots, 0.5 s mean think, 4..512-segment transfers with shape
    1.3, 1 s ramp. *)
val default_config : config

type t

(** Where a churn instance's traffic lives: source/sink pairs on one
    network with per-pair route samplers. Routes are indexed by pair
    ([slot mod pairs]); the returned arrays must end at the
    corresponding sink (data) / source (ack) node id. *)
type endpoints = {
  network : Net.Network.t;
  sources : Net.Node.t array;
  sinks : Net.Node.t array;
  route_data : int -> int array;
  route_ack : int -> int array;
}

val endpoints_of_dumbbell : Topo.Dumbbell.t -> endpoints

(** [spawn dumbbell ~sender ~config ~churn ~rng ()] wires the slots and
    schedules their initial arrivals; run the engine afterwards. Slots
    cycle pairs round-robin ([slot mod pairs]). [config.total_segments]
    is overridden per transfer. Raises [Invalid_argument] on a
    malformed [churn]. *)
val spawn :
  Topo.Dumbbell.t ->
  sender:(module Tcp.Sender.S) ->
  config:Tcp.Config.t ->
  churn:config ->
  rng:Sim.Rng.t ->
  unit ->
  t

(** [spawn_endpoints ep ~sender ~config ~churn ~rngs ()] is {!spawn}
    over arbitrary endpoints, with the per-slot streams supplied by the
    caller ([Array.length rngs] must equal [churn.flows]). A
    partitioned workload derives all slot streams at the root with
    {!slot_rngs} and hands each cell its slice, so the traffic a global
    slot generates is independent of how slots are partitioned into
    cells. [flow_base] (default 0) offsets the flow ids this instance
    allocates — give cells disjoint ranges. [probe], when supplied, is
    passed to every connection the instance creates (one tap per cell,
    for monitors and trace digests). *)
val spawn_endpoints :
  endpoints ->
  sender:(module Tcp.Sender.S) ->
  config:Tcp.Config.t ->
  churn:config ->
  rngs:Sim.Rng.t array ->
  ?flow_base:int ->
  ?probe:Tcp.Probe.t ->
  unit ->
  t

(** [slot_rngs rng ~flows] derives the canonical per-slot streams:
    sequential splits of [rng] labelled ["churn-slot-<i>"] in global
    slot order. {!Sim.Rng.split} advances the parent, so derive once at
    the root and slice — never re-split per cell. [spawn] uses exactly
    this derivation. *)
val slot_rngs : Sim.Rng.t -> flows:int -> Sim.Rng.t array

val flows : t -> int

(** Connections built so far ({!Tcp.Connection.create} calls): one per
    slot that has started a transfer, plus one for every transfer that
    found its slot's connection not yet quiescent. *)
val connections_built : t -> int

(** Transfers started (including the ones still active). *)
val transfers_started : t -> int

val transfers_completed : t -> int

(** Segments delivered by completed transfers. *)
val segments_completed : t -> int

(** [segments_completed] in bytes ([mss] per segment). *)
val bytes_completed : t -> int

(** Transfers currently in progress. *)
val active : t -> int

(** Histogram of completed transfer sizes, in segments. *)
val transfer_segments : t -> Obs.Metrics.Histogram.t

(** Histogram of completed transfer durations, in milliseconds. *)
val transfer_ms : t -> Obs.Metrics.Histogram.t
