(** Retransmission-timeout estimation, RFC 2988 / Jacobson–Karels.

    [srtt] and [rttvar] follow the standard gains (1/8, 1/4); the RTO is
    [srtt + max(G, 4 * rttvar)] clamped to the configured floor and
    ceiling, where [G] is the timer granularity. Exponential back-off
    doubles the RTO on each timeout and is cleared when new data is
    acknowledged (Karn's algorithm is the caller's responsibility: do
    not feed samples from retransmitted segments). *)

type t

val create : Config.t -> t

(** [reset t config] returns [t] in place to the state [create config]
    builds: no sample, no back-off. *)
val reset : t -> Config.t -> unit

(** [sample t rtt] folds a round-trip-time measurement in. *)
val sample : t -> float -> unit

(** [sample_between t ~sent_at ~now] folds in the measurement
    [now - sent_at]. Equivalent to [sample t (now -. sent_at)], but the
    subtraction happens inside the call so the per-ACK hot path passes
    two already-boxed floats instead of allocating a fresh one. *)
val sample_between : t -> sent_at:float -> now:float -> unit

(** [current t] is the RTO in seconds, back-off included. *)
val current : t -> float

(** [current_ns t] is [current t] as an integer-nanosecond delay
    (ceiling conversion, see {!Sim.Time.of_sec_delay}), allocation-free
    for use on the per-ACK timer re-arm path. *)
val current_ns : t -> Sim.Time.t

(** [backoff t] doubles the effective (clamped) RTO, saturating at
    [max_rto]: after the call, [current t = min (2 * rto, max_rto)]
    where [rto] was the pre-call value. In particular the armed RTO
    really doubles even while the [min_rto] floor is active, and the
    internal back-off state stays bounded at both clamps. *)
val backoff : t -> unit

(** [reset_backoff t] clears exponential back-off (on new ACK). *)
val reset_backoff : t -> unit

(** [srtt t] is the smoothed RTT, or [None] before the first sample. *)
val srtt : t -> float option

(** [srtt_or t ~default] is the smoothed RTT, or [default] before the
    first sample — [srtt] without the per-call [Some] box, for per-ACK
    paths. *)
val srtt_or : t -> default:float -> float

(** [rttvar t] is the RTT variation estimate, [None] before the first
    sample. *)
val rttvar : t -> float option
