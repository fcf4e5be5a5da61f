(* Log-linear histogram of non-negative ints: eight sub-buckets per
   power of two, so a quantile is exact to within 12.5%. Recording is a
   bit scan and an array increment, cheap enough for per-call timings
   over tens of millions of calls, where one span per call is not. *)

let sub_bits = 3

let sub = 1 lsl sub_bits

(* Values below [sub] get a bucket each; above, bucket = octave and the
   [sub_bits] bits under the leading one. *)
let buckets = sub + ((62 - sub_bits) * sub)

type t = { counts : int array; mutable count : int; mutable sum : int }

let create () = { counts = Array.make buckets 0; count = 0; sum = 0 }

let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1)

let index v =
  if v < sub then max v 0
  else
    let m = msb v 0 in
    sub + ((m - sub_bits) * sub) + ((v lsr (m - sub_bits)) land (sub - 1))

(* Midpoint of bucket [i]. *)
let value_of i =
  if i < sub then float_of_int i
  else
    let octave = ((i - sub) / sub) + sub_bits and mant = (i - sub) mod sub in
    let width = 1 lsl (octave - sub_bits) in
    float_of_int (((sub + mant) * width)) +. (float_of_int (width - 1) /. 2.)

let record t v =
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v

let merge_into ~into t =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
  into.count <- into.count + t.count;
  into.sum <- into.sum + t.sum

(* Nearest-rank quantile; 0 when empty. *)
let quantile t q =
  if t.count = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))) in
    let i = ref 0 and seen = ref t.counts.(0) in
    while !seen < rank do
      incr i;
      seen := !seen + t.counts.(!i)
    done;
    value_of !i
  end
