(** Reno/NewReno congestion control engine.

    Implements slow start, congestion avoidance, fast retransmit / fast
    recovery with NewReno partial-ACK handling, RFC 2988 retransmission
    timeouts with exponential back-off, Karn's rule for RTT sampling,
    and (optionally) limited transmit.

    The fast-retransmit *trigger* is pluggable so that this one engine
    also implements time-delayed fast recovery (TD-FR): [`Dupthresh]
    enters recovery on the Nth duplicate ACK; [`Time_delayed] arms a
    timer on the first duplicate ACK and enters recovery only if
    duplicates persist for [max(srtt / 2, DT)], where [DT] is the spread
    between the first and third duplicate — the scheme of Paxson
    analysed by Blanton–Allman and compared against in the paper's
    Fig. 6. *)

type trigger =
  | Dupthresh
  | Time_delayed

(** Reaction to duplicate-ACK loss inference: [Tahoe] retransmits and
    slow-starts from one; [Reno] runs fast recovery but ends it at the
    first partial ACK; [Newreno] repairs every hole through partial-ACK
    retransmissions. *)
type recovery_style =
  | Tahoe
  | Reno
  | Newreno

type strategy = {
  trigger : trigger;
  limited_transmit_cap : int option;
      (** max new segments sent on duplicate ACKs before recovery;
          [None] = one per duplicate (extended limited transmit),
          [Some 2] = RFC 3042. Ignored when [Config.limited_transmit]
          is false. *)
  style : recovery_style;
}

val default_strategy : strategy

val tahoe_strategy : strategy

val reno_strategy : strategy

val td_fr_strategy : strategy

type t

val create : ?strategy:strategy -> Config.t -> t

(** [reset t config] returns [t] in place to the state
    [create ~strategy config] builds, [strategy] being the one [t] was
    created with (see {!Sender.S.reset}). *)
val reset : t -> Config.t -> unit

val start : t -> now:float -> Action_buffer.t -> unit

val on_ack : t -> now:float -> Types.ack -> Action_buffer.t -> unit

val on_timer : t -> now:float -> key:int -> Action_buffer.t -> unit

val cwnd : t -> float

val ssthresh : t -> float

val acked : t -> int

val in_recovery : t -> bool

val finished : t -> bool

val metrics : t -> (string * float) list
