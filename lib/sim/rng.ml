(* xoshiro256** implemented on 32-bit halves held in a flat [int array]
   (layout [| s0h; s0l; s1h; s1l; s2h; s2l; s3h; s3l; rh; rl |], where
   the last two slots receive each step's 64-bit output). Native [int]
   arithmetic keeps every step in immediates: the previous [Int64]
   version boxed several intermediates per draw (the compiler does not
   unbox Int64 chains without flambda), which put ~70 B of garbage
   behind every jitter or routing draw on the per-packet hot path. The
   bit sequence is unchanged — each half-wise op reproduces the 64-bit
   op exactly, and the differential against the Int64 reference is
   locked in by the golden traces. *)
type t = int array

let mask = 0xFFFFFFFF

(* SplitMix64 is used only to expand seeds into full xoshiro256** state,
   as recommended by the xoshiro authors. Seeding is cold, so plain
   Int64 arithmetic is fine here. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_lanes s0 s1 s2 s3 =
  let t = Array.make 10 0 in
  let put lane v =
    t.(2 * lane) <- Int64.to_int (Int64.shift_right_logical v 32);
    t.((2 * lane) + 1) <- Int64.to_int (Int64.logand v 0xFFFFFFFFL)
  in
  put 0 s0;
  put 1 s1;
  put 2 s2;
  put 3 s3;
  t

let of_seed64 seed =
  let state = ref seed in
  let s0 = splitmix_next state in
  let s1 = splitmix_next state in
  let s2 = splitmix_next state in
  let s3 = splitmix_next state in
  (* xoshiro must not be seeded with the all-zero state. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    of_lanes 1L 2L 3L 4L
  else of_lanes s0 s1 s2 s3

let create seed = of_seed64 (Int64.of_int seed)

(* One xoshiro256** step. Multiplications are by small constants, so a
   half-wise product plus carry stays well inside a 63-bit immediate;
   rotations split across the halves ([rotl 45] is a half swap followed
   by [rotl 13]). Writes the 64-bit result into slots 8 (high) and 9
   (low). *)
let step (t : t) =
  let s0h = Array.unsafe_get t 0 and s0l = Array.unsafe_get t 1 in
  let s1h = Array.unsafe_get t 2 and s1l = Array.unsafe_get t 3 in
  let s2h = Array.unsafe_get t 4 and s2l = Array.unsafe_get t 5 in
  let s3h = Array.unsafe_get t 6 and s3l = Array.unsafe_get t 7 in
  (* result = rotl (s1 * 5) 7 * 9 *)
  let m5l = s1l * 5 in
  let m5h = ((s1h * 5) + (m5l lsr 32)) land mask in
  let m5l = m5l land mask in
  let r7h = ((m5h lsl 7) lor (m5l lsr 25)) land mask in
  let r7l = ((m5l lsl 7) lor (m5h lsr 25)) land mask in
  let r9l = r7l * 9 in
  let rh = ((r7h * 9) + (r9l lsr 32)) land mask in
  let rl = r9l land mask in
  (* tmp = s1 lsl 17; same update order as the reference
     implementation: s1 and s0 mix in the already-updated s2 and s3. *)
  let tmph = ((s1h lsl 17) lor (s1l lsr 15)) land mask in
  let tmpl = (s1l lsl 17) land mask in
  let s2h = s2h lxor s0h and s2l = s2l lxor s0l in
  let s3h = s3h lxor s1h and s3l = s3l lxor s1l in
  let s1h = s1h lxor s2h and s1l = s1l lxor s2l in
  let s0h = s0h lxor s3h and s0l = s0l lxor s3l in
  let s2h = s2h lxor tmph and s2l = s2l lxor tmpl in
  (* s3 = rotl s3 45 = rotl (swapped halves) 13 *)
  let xh = s3l and xl = s3h in
  let s3h = ((xh lsl 13) lor (xl lsr 19)) land mask in
  let s3l = ((xl lsl 13) lor (xh lsr 19)) land mask in
  Array.unsafe_set t 0 s0h;
  Array.unsafe_set t 1 s0l;
  Array.unsafe_set t 2 s1h;
  Array.unsafe_set t 3 s1l;
  Array.unsafe_set t 4 s2h;
  Array.unsafe_set t 5 s2l;
  Array.unsafe_set t 6 s3h;
  Array.unsafe_set t 7 s3l;
  Array.unsafe_set t 8 rh;
  Array.unsafe_set t 9 rl

let bits64 (t : t) =
  step t;
  Int64.logor
    (Int64.shift_left (Int64.of_int (Array.unsafe_get t 8)) 32)
    (Int64.of_int (Array.unsafe_get t 9))

let split t label =
  (* Mix the parent's next output with a hash of the label, then expand
     through SplitMix64 so sibling streams are decorrelated. *)
  let h = Hashtbl.hash label in
  let seed = Int64.logxor (bits64 t) (Int64.of_int h) in
  of_seed64 seed

let copy t = Array.copy t

(* [float] and [float_range] inline into their callers (the per-packet
   route sampler and jitter draw), so the double they return stays
   unboxed there; [bool] reuses the same body. *)
let[@inline] float t =
  (* Take the top 53 bits for a uniform double in [0, 1): the high half
     contributes all 32 bits, the low half its top 21. *)
  step t;
  let bits =
    (Array.unsafe_get t 8 lsl 21) lor (Array.unsafe_get t 9 lsr 11)
  in
  float_of_int bits *. 0x1.0p-53

let[@inline] float_range t ~lo ~hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t bound =
  assert (bound > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let raw = Int64.shift_right_logical (bits64 t) 1 in
    let value = Int64.rem raw bound64 in
    if Int64.sub raw value > Int64.sub Int64.max_int (Int64.sub bound64 1L)
    then draw ()
    else Int64.to_int value
  in
  draw ()

let bool t ~p =
  assert (p >= 0. && p <= 1.);
  float t < p

let exponential t ~mean =
  assert (mean > 0.);
  let u = 1. -. float t in
  -.mean *. log u

let choose t weights =
  let n = Array.length weights in
  assert (n > 0);
  (* Left-to-right sums, matching the fold the boxed version used, so
     the drawn indices are bit-for-bit identical. *)
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. Array.unsafe_get weights i
  done;
  assert (!total > 0.);
  let target = float t *. !total in
  let i = ref 0 in
  let acc = ref 0. in
  let stop = ref false in
  while (not !stop) && !i < n - 1 do
    acc := !acc +. Array.unsafe_get weights !i;
    if target < !acc then stop := true else incr i
  done;
  !i

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
