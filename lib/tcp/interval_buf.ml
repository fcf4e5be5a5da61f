(* Mutable sorted interval set over ints — the in-place counterpart of
   {!Intervals}, for the receiver's per-packet hot path. Disjoint,
   non-adjacent [(first, last)] pairs live in two parallel int arrays;
   membership and insertion shift in place, so steady-state churn
   (add / drain / remove_below per arrival) allocates nothing. The
   arrays only ever double, and interval counts are small (holes in a
   receive window), so the O(n) shifts are a few word moves. *)

type t = {
  mutable firsts : int array;
  mutable lasts : int array;
  mutable n : int;
}

let create () = { firsts = Array.make 8 0; lasts = Array.make 8 0; n = 0 }

let clear t = t.n <- 0

let is_empty t = t.n = 0

let cardinal t =
  let acc = ref 0 in
  for i = 0 to t.n - 1 do
    acc := !acc + t.lasts.(i) - t.firsts.(i) + 1
  done;
  !acc

(* Index of the interval containing [x], or -1. *)
let find t x =
  let idx = ref (-1) in
  let i = ref 0 in
  while !idx < 0 && !i < t.n do
    if x < Array.unsafe_get t.firsts !i then i := t.n (* sorted: done *)
    else if x <= Array.unsafe_get t.lasts !i then idx := !i
    else incr i
  done;
  !idx

let mem t x = find t x >= 0

let first t i = t.firsts.(i)

let last t i = t.lasts.(i)

let grow t =
  let cap = Array.length t.firsts in
  let firsts = Array.make (2 * cap) 0 in
  let lasts = Array.make (2 * cap) 0 in
  Array.blit t.firsts 0 firsts 0 t.n;
  Array.blit t.lasts 0 lasts 0 t.n;
  t.firsts <- firsts;
  t.lasts <- lasts

(* Insert the single element [x], merging with neighbours exactly as
   [Intervals.add] does. *)
let add t x =
  (* First interval not entirely left of [x - 1] (i.e. last + 1 >= x). *)
  let i = ref 0 in
  while !i < t.n && Array.unsafe_get t.lasts !i + 1 < x do
    incr i
  done;
  let i = !i in
  if i = t.n then begin
    (* Beyond everything: append. *)
    if t.n = Array.length t.firsts then grow t;
    t.firsts.(i) <- x;
    t.lasts.(i) <- x;
    t.n <- t.n + 1
  end
  else if x + 1 < t.firsts.(i) then begin
    (* Strictly before interval [i]: insert. *)
    if t.n = Array.length t.firsts then grow t;
    Array.blit t.firsts i t.firsts (i + 1) (t.n - i);
    Array.blit t.lasts i t.lasts (i + 1) (t.n - i);
    t.firsts.(i) <- x;
    t.lasts.(i) <- x;
    t.n <- t.n + 1
  end
  else begin
    (* Overlapping or adjacent: extend [i], then absorb a bridged
       successor (a single element can bridge at most one). *)
    if x < t.firsts.(i) then t.firsts.(i) <- x;
    if x > t.lasts.(i) then t.lasts.(i) <- x;
    if i + 1 < t.n && t.firsts.(i + 1) <= t.lasts.(i) + 1 then begin
      if t.lasts.(i + 1) > t.lasts.(i) then t.lasts.(i) <- t.lasts.(i + 1);
      Array.blit t.firsts (i + 2) t.firsts (i + 1) (t.n - i - 2);
      Array.blit t.lasts (i + 2) t.lasts (i + 1) (t.n - i - 2);
      t.n <- t.n - 1
    end
  end

let remove_below t x =
  (* Drop intervals entirely below [x]; clip one straddling it. *)
  let i = ref 0 in
  while !i < t.n && Array.unsafe_get t.lasts !i < x do
    incr i
  done;
  let i = !i in
  if i > 0 then begin
    Array.blit t.firsts i t.firsts 0 (t.n - i);
    Array.blit t.lasts i t.lasts 0 (t.n - i);
    t.n <- t.n - i
  end;
  if t.n > 0 && t.firsts.(0) < x then t.firsts.(0) <- x
