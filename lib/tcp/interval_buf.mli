(** Mutable sorted interval set over ints — the in-place counterpart of
    {!Intervals} for per-packet hot paths. Holds disjoint, non-adjacent
    [(first, last)] pairs in parallel arrays; steady-state
    add/drain/remove churn performs zero allocation (the arrays only
    ever double). Semantics of every operation mirror the functional
    module exactly. *)

type t

val create : unit -> t

(** [clear t] empties [t], keeping its grown arrays. *)
val clear : t -> unit

val is_empty : t -> bool

(** Total number of contained elements. *)
val cardinal : t -> int

(** [find t x] is the index of the interval containing [x], or -1.
    Indices are positional and invalidated by any mutation. *)
val find : t -> int -> int

val mem : t -> int -> bool

(** Bounds of the interval at a valid index returned by {!find}. *)
val first : t -> int -> int

val last : t -> int -> int

(** [add t x] inserts the single element [x], merging with overlapping
    or adjacent intervals. *)
val add : t -> int -> unit

(** [remove_below t x] removes every element [< x]. *)
val remove_below : t -> int -> unit
