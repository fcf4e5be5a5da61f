(* Monotonic host clock in integer nanoseconds. Wall-clock time
   (gettimeofday) can step under NTP; CLOCK_MONOTONIC cannot. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
