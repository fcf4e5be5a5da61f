(** Many-flow scale scenario: closed-loop {!Workload.Flow_churn} over a
    capacity-scaled dumbbell.

    This is the scheduler's stress regime — thousands of concurrent
    connections, each arming and cancelling retransmission timers per
    packet — used by the [scale] subcommand and the scale benchmark
    suite to measure events/sec and timer ops/sec on the timing
    wheel. *)

type result = {
  flows : int;  (** concurrent flow slots *)
  duration : float;  (** simulated seconds *)
  transfers_started : int;
  transfers_completed : int;
  segments_completed : int;
  goodput_mbps : float;  (** completed-transfer bytes over [duration] *)
  events_executed : int;
  timer_arms : int;
  timer_cancels : int;
  timer_fires : int;
  pending_at_end : int;
  engine : Sim.Engine.t;  (** for {!Check.Telemetry.engine}-style collectors *)
  network : Net.Network.t;
  workload : Workload.Flow_churn.t;
}

(** Scale-tuned TCP config: [min_rto] 0.2 s, [initial_rto] 1 s,
    delayed ACKs on. *)
val default_config : Tcp.Config.t

(** The churn used when none is supplied: 0.2 s mean think, 4..256
    segment transfers, ramp capped at 1 s. *)
val default_churn : flows:int -> duration:float -> Workload.Flow_churn.config

(** [run ~flows ()] builds the topology (32 host pairs, ~1 Mb/s of
    bottleneck per slot), spawns the churn workload and runs [duration]
    simulated seconds (default 5). [sender] defaults to TCP-PR — the
    all-timer protocol, the wheel's worst case. Raises
    [Invalid_argument] on non-positive [flows] and on a [duration] that
    is not finite and positive. *)
val run :
  ?seed:int ->
  ?sender:Variants.t ->
  ?config:Tcp.Config.t ->
  ?churn:Workload.Flow_churn.config ->
  ?duration:float ->
  flows:int ->
  unit ->
  result

(** Timer arms + cancels + fires. *)
val timer_ops : result -> int

val pp : Format.formatter -> result -> unit
