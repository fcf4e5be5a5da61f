(** Priority queue of timestamped one-shot events.

    Events are ordered by [(time, seq)], where [seq] is a rank the
    caller draws from its own monotone counter, so ties break by
    insertion order and the simulation is deterministic. Implemented as
    a struct-of-arrays binary heap — push and pop never allocate per
    entry. Times are {!Time.t} integer nanoseconds, so heap keys compare
    and move without boxing. Entries cannot be cancelled: an event, once
    pushed, is popped exactly once. Cancellable recurring timers live on
    {!Timer_wheel}, which {!Engine} merges with this queue on the same
    [(time, seq)] key. *)

type 'a t

(** [create ()] returns an empty queue. *)
val create : unit -> 'a t

(** [push_seq t ~time ~seq payload] inserts an event with key
    [(time, seq)]. Ranks must be unique for the pop order to be total;
    {!Engine} draws them from one engine-global counter shared with the
    wheel. *)
val push_seq : 'a t -> time:Time.t -> seq:int -> 'a -> unit

(** Allocation-free head primitives: the caller reads the head key
    field-by-field instead of materialising options or tuples. *)

(** [head t] is [true] iff the queue holds an event. Must return [true]
    before {!head_time}, {!head_seq} or {!pop_head} are used. *)
val head : 'a t -> bool

(** Time of the earliest event. Only meaningful after {!head} returned
    [true]. *)
val head_time : 'a t -> Time.t

(** Rank of the earliest event. Only meaningful after {!head} returned
    [true]. *)
val head_seq : 'a t -> int

(** Removes and returns the earliest event's payload. Only sound after
    {!head} returned [true]. *)
val pop_head : 'a t -> 'a

(** [length t] is the number of queued events. *)
val length : 'a t -> int
