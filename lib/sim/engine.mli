(** Discrete-event simulation engine.

    The engine owns the simulated clock and two scheduling substrates,
    each with one job. One-shot events (packet transmissions, workload
    arrivals, closures) go on a binary-heap {!Event_queue}: pushed
    once, popped once, never cancelled. Recurring timers
    (retransmission and delayed-ACK timers, armed and cancelled per
    packet) ride a hierarchical {!Timer_wheel}. Both substrates draw
    event ranks from one engine-global counter and the run loop pops
    whichever holds the earliest [(time, rank)] key, so execution order
    — including ties — is byte-identical to running everything on a
    single sorted agenda. The clock never moves backwards.

    One-shot events come in two forms. The general form is a closure
    ([schedule_at] / [schedule_after]). Hot paths instead extend the
    {!event} variant with their own constructors and schedule those
    directly ([schedule_event_at_ns] / [schedule_event_after_ns]),
    paying one small variant block per event instead of heap closures;
    each layer installs a dispatcher for its constructors once per
    engine with [add_dispatcher]. Both forms share the deterministic
    (time, insertion) order regardless of which form a component uses.
    A one-shot event cannot be withdrawn once scheduled; anything that
    may need cancelling is a timer.

    Recurring timers use {!timer} cells: allocate once with
    [make_timer], then [arm_timer] / [cancel_timer] freely — rearming
    from the timer's own handler is safe because the cell is cleared
    before the handler runs.

    Time is {!Time.t} integer nanoseconds internally. The hot paths
    ([schedule_event_*_ns], [arm_timer_ns], [now_ns], [run_ns],
    [next_event_time_ns]) take and return {!Time.t}. Float seconds
    remain only where callers speak seconds — closures, [arm_timer],
    [now], [run] — and those forms are definitionally
    [Time.of_sec]/[Time.to_sec] compositions of the ns forms, so mixing
    them is safe. *)

type t

(** Extensible event payload. Layers add constructors, e.g.
    [type Sim.Engine.event += Tx_done of link]. *)
type event = ..

(** The general fallback: run a closure. Dispatched internally, never
    passed to registered dispatchers. *)
type event += Closure of (unit -> unit)

(** [create ()] returns an engine with the clock at time 0.
    [timer_granularity] is the wheel's slot width in seconds (default
    1e-3).

    [use_wheel] is accepted only as [true] (the default): [false]
    selected the removed heap-timer mode. The argument survives only
    because the frozen benchmark scenarios in [perfbench/] pass
    [~use_wheel:true]; it goes with the next benchmark revision.

    @raise Invalid_argument if [use_wheel] is [false], or if
    [timer_granularity] is not positive (including NaN) or rounds to
    0 ns. *)
val create : ?use_wheel:bool -> ?timer_granularity:float -> unit -> t

(** [now t] is the current simulated time, in seconds. *)
val now : t -> float

(** [now_ns t] is the current simulated time in nanoseconds. The
    boxing-free clock read for hot paths. *)
val now_ns : t -> Time.t

(** [add_dispatcher t ~key f] installs [f] to execute typed events.
    [f ev] must return [true] if it handled [ev], [false] to pass it to
    the next dispatcher. Registering the same [key] twice is a no-op,
    so components may call this idempotently (e.g. once per link or
    connection). Executing a typed event no dispatcher claims raises
    [Invalid_argument]. *)
val add_dispatcher : t -> key:string -> (event -> bool) -> unit

(** [schedule_event_at_ns t ~time ev] executes [ev] when the clock
    reaches [time]. Scheduling in the past raises [Invalid_argument]. *)
val schedule_event_at_ns : t -> time:Time.t -> event -> unit

(** [schedule_event_after_ns t ~delay ev] executes [ev] after [delay]
    nanoseconds. Requires [delay >= 0]. *)
val schedule_event_after_ns : t -> delay:Time.t -> event -> unit

(** [schedule_at t ~time f] runs [f ()] when the clock reaches [time]
    seconds. Scheduling in the past raises [Invalid_argument]. *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** [schedule_after t ~delay f] runs [f ()] after [delay] seconds.
    Requires [delay >= 0.]. *)
val schedule_after : t -> delay:float -> (unit -> unit) -> unit

(** {2 Recurring timer cells} *)

(** A reusable timer slot: at most one pending armament at a time,
    firing a fixed payload. Arm/rearm/cancel are O(1) on the wheel and
    allocation-free after [make_timer]. *)
type timer

(** [make_timer t payload] allocates an unarmed cell that executes
    [payload] (via the engine's dispatchers) each time it fires. *)
val make_timer : t -> event -> timer

(** [arm_timer t tm ~delay] schedules [tm] to fire after [delay]
    seconds, first cancelling any pending armament of the same cell.
    Requires [delay >= 0.]. *)
val arm_timer : t -> timer -> delay:float -> unit

(** ns-native [arm_timer]: the allocation-free rearm path (RTO and
    delayed-ACK churn). Requires [delay >= 0]. *)
val arm_timer_ns : t -> timer -> delay:Time.t -> unit

(** [cancel_timer t tm] disarms [tm]; a no-op if unarmed. *)
val cancel_timer : t -> timer -> unit

(** [timer_armed tm] is [true] while an armament is pending. The cell
    reads as unarmed inside its own fire handler, so handlers can
    rearm unconditionally. *)
val timer_armed : timer -> bool

(** {2 End-of-instant hooks} *)

(** [at_instant_end t f] runs [f ()] after every event due at the
    current instant has executed, before the clock advances past it —
    the batching hook: a connection receiving several same-instant ACKs
    registers one flush and drains its action buffer once. [f] may
    schedule events (at the instant or later) and may re-register
    itself or other hooks; hooks run in registration order and each
    registration fires exactly once. Outside [run], pending hooks fire
    before the clock first advances. *)
val at_instant_end : t -> (unit -> unit) -> unit

(** {2 Running} *)

(** [run t ~until] executes events until both substrates are out of
    events due by [until], then sets the clock to [until]. *)
val run : t -> until:float -> unit

(** ns-native [run]. *)
val run_ns : t -> until:Time.t -> unit

(** [run_to_completion t] executes events until both substrates are
    empty. *)
val run_to_completion : t -> unit

(** [pending t] is the number of queued one-shot events plus armed
    timers. *)
val pending : t -> int

(** [next_event_time_ns t] is a conservative lower bound on the time of
    the earliest pending event across both substrates ([Time.never]
    when idle): nothing will execute strictly before it. The heap side
    is exact; the wheel side is its {!Timer_wheel.lower_bound}, so the
    returned time may precede the actual next firing. Used by
    {!Sharded_engine} to advance the global horizon over idle gaps. *)
val next_event_time_ns : t -> Time.t

(** {2 Scheduler counters} (monotone over the engine's lifetime) *)

val events_executed : t -> int

val timer_arms : t -> int

val timer_cancels : t -> int

val timer_fires : t -> int

