(* Host-speed probe. On a shared virtual machine the same code runs at
   speeds up to ~1.4x apart, in states that last from a fraction of a
   second to minutes (other tenants on the same physical cores; the
   guest sees no steal time, so CPU time swings with wall time). The
   probe times a fixed, benchmark-owned loop that calls no simulator
   code and does not allocate, so a change to the simulator cannot move
   it. Timed between the slices of a measured phase, it tells how fast
   the host ran during each slice, and [scale] converts the slice's host
   time to what it would have been at a fixed reference speed.

   The loop is a dependent walk over a 512 KB random cycle (cache
   misses past L2) with multiply/xor arithmetic and a data-dependent
   branch. Of the loops tried (an L1-resident one, this one, an 8 MB
   one), this one's time tracked the simulator's repetition times most
   closely on every workload. *)

let cells = 1 lsl 16

(* One random cycle through every cell (Sattolo's algorithm, fixed LCG),
   so the walk's order defeats the prefetcher and never shortens. *)
let next =
  let a = Array.init cells Fun.id in
  let s = ref 12345 in
  for i = cells - 1 downto 1 do
    s := ((!s * 1103515245) + 12345) land 0x3FFF_FFFF;
    let j = !s mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let walk steps =
  let p = ref 0 and acc = ref 1 in
  for _ = 1 to steps do
    let q = Array.unsafe_get next !p in
    acc := ((!acc lxor q) * 0x2545F491) + (q lsr 3);
    if !acc land 4 = 0 then acc := !acc + (q * 7);
    p := q
  done;
  !acc

let steps = 200_000

(* Host nanoseconds for [steps] steps: the lesser of two timings, so the
   first one warms the cycle back into cache after the simulator ran and
   a preemption in one of them does not count. *)
let probe_ns () =
  let once () =
    let t0 = Clock.now_ns () in
    ignore (Sys.opaque_identity (walk steps));
    Clock.now_ns () - t0
  in
  let a = once () in
  float_of_int (min a (once ()))

(* The probe's time at the reference speed: about its median on the
   2-core 2.1 GHz Xeon VM the benchmark was defined on. *)
let reference_ns = 2e6

(* How much more the simulator's time swings than the probe's with the
   host's speed: fitted over repetitions of all three workloads (the
   least-squares slope of log repetition time on log mean probe time was
   1.68-1.70 on each, with correlation 0.83-0.89). *)
let elasticity = 1.7

(* [ns] of host time measured while the probe read [probe_ns], scaled to
   the reference speed. *)
let scale ns ~probe_ns = ns *. Float.pow (reference_ns /. probe_ns) elasticity
