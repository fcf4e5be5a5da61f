(** TCP receiver (sink).

    Generates one acknowledgement per arriving data segment: cumulative
    ACK, up to {!Types.max_sack_blocks} SACK blocks (most recently
    updated block first, per RFC 2018), and a DSACK report for duplicate
    arrivals (RFC 2883). TCP-PR requires no receiver changes — every
    sender variant in this repository talks to this one sink, which is
    exactly the paper's backward-compatibility claim.

    With [Config.rcv_buf_segments] set, arrivals are additionally
    subject to finite socket-buffer admission ({!Rcv_buffer}): segments
    that find no room are dropped at the socket ({!disposition.Drop})
    and every acknowledgement advertises the remaining window. The
    default configuration leaves the buffer disabled and reproduces the
    paper's idealised unbounded sink exactly. *)

type t

(** Whether the acknowledgement should go out immediately or may be
    deferred under RFC 1122 delayed ACKs. A deferred acknowledgement
    must be transmitted when the next segment arrives or when the
    delayed-ACK timer ([Config.delack_timeout]) fires, whichever comes
    first; {!Connection} implements the timer. [Drop] reports a segment
    refused by the finite socket buffer: the data was discarded, and
    the carried acknowledgement (not advancing past the drop, with the
    surviving advertised window) must go out immediately. *)
type disposition =
  | Ack_now of Types.ack
  | Defer of Types.ack
  | Drop of Types.ack

(** [create config] allocates a receiver and {!reset}s it. *)
val create : Config.t -> t

(** [reset t config] returns [t] in place to the state [create config]
    builds: nothing received, counters and reordering metrics zeroed,
    grown reassembly arrays kept. *)
val reset : t -> Config.t -> unit

(** [receive t ?retx ?now ~seq ()] registers arrival of segment [seq],
    echoing [retx] back to the sender (see {!Types.ack}). With
    [Config.delayed_ack] set, every second in-order segment — and any
    out-of-order, duplicate or hole-filling arrival — is acknowledged
    immediately; a first lone in-order segment is deferred. [now] (the
    simulation clock) feeds DRS autotuning and is only consulted when
    the finite receive buffer is enabled. *)
val receive : t -> ?retx:bool -> ?now:float -> seq:int -> unit -> disposition

(** [on_data t ~seq] is [receive] with the disposition erased: the
    acknowledgement that (eventually) goes out. Convenient for driving
    senders directly in tests. *)
val on_data : t -> ?retx:bool -> ?now:float -> seq:int -> unit -> Types.ack

(** [rcv_next t] is the lowest sequence number not yet received; all
    segments below it have been delivered in order. *)
val rcv_next : t -> int

(** [in_order_segments t] equals [rcv_next t]: segments delivered to the
    application. *)
val in_order_segments : t -> int

(** [duplicates t] counts duplicate data arrivals (spurious
    retransmissions reaching the sink). *)
val duplicates : t -> int

(** [buffered t] counts segments held in the out-of-order buffer. *)
val buffered : t -> int

(** Distribution of [seq - rcv_next] over out-of-order arrivals — the
    packet reordering depth observed by this sink. *)
val reorder_depth : t -> Obs.Metrics.Histogram.t

(** Streaming RFC 4737 reordering metrics (extent, late-offset
    density, n-reordering) over this sink's admitted arrival stream.
    Always on; retransmitted hole fillers count as late arrivals for
    density, not as fresh reordering events. *)
val reorder : t -> Obs.Reorder.t

(** The finite socket buffer, when configured. *)
val buffer : t -> Rcv_buffer.t option

(** Segments refused by the finite socket buffer (0 when disabled). *)
val buf_drops : t -> int

(** Zero-window advertisements issued (0 when disabled). *)
val zero_windows : t -> int

(** [needs_drain t] is true while the application-drain timer must keep
    running: in-order data awaits reading, or a zero window stands
    unreopened. Always false with the buffer disabled. *)
val needs_drain : t -> bool

(** [app_drain t] models one application read: releases one in-order
    segment back to free buffer space. No-op with the buffer disabled
    or nothing readable. *)
val app_drain : t -> unit

(** [window_update t] is the window-reopen announcement owed after a
    zero-window advertisement, once the application has freed space:
    a pure acknowledgement ([for_seq = -1], no SACK blocks) carrying
    the current window. [None] when no zero window stands or no space
    has been freed. Repeated calls keep announcing until a data arrival
    confirms the sender heard — deliberate robustness to ACK loss. *)
val window_update : t -> Types.ack option

(** [quiesce t] winds the zero-window machinery down once the transfer
    is over: if the application has read everything out of the socket,
    the standing zero-window flag is dropped so {!needs_drain} can go
    false. Called by {!Connection} on post-completion drain ticks only
    — during a live transfer the flag survives an empty buffer, since
    only a data arrival proves the sender heard a reopen. *)
val quiesce : t -> unit
