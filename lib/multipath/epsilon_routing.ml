type t = {
  rng : Sim.Rng.t;
  costs : float array;
  mutable epsilon : float;
  weights : float array;
  (* Left-to-right running sums of [weights], precomputed so that
     [sample] replays exactly the scan [Sim.Rng.choose] would perform
     without allocating anything per draw — path choice runs once per
     packet. *)
  cum : floatarray;
}

(* Recompute [weights] and [cum] in place for the current [epsilon].
   Subtract the minimum cost before exponentiating so the cheapest
   path always has weight 1 and epsilon = 500 underflows the others to
   exactly zero rather than producing 0/0. *)
let rebuild t =
  let n = Array.length t.costs in
  let min_cost = Array.fold_left Float.min infinity t.costs in
  let total = ref 0. in
  for i = 0 to n - 1 do
    let w = exp (-.t.epsilon *. (t.costs.(i) -. min_cost)) in
    t.weights.(i) <- w;
    total := !total +. w
  done;
  let acc = ref 0. in
  for i = 0 to n - 1 do
    t.weights.(i) <- t.weights.(i) /. !total;
    acc := !acc +. t.weights.(i);
    Float.Array.set t.cum i !acc
  done

let create rng ~epsilon ~costs =
  if epsilon < 0. then invalid_arg "Epsilon_routing.create: negative epsilon";
  if Array.length costs = 0 then
    invalid_arg "Epsilon_routing.create: no paths";
  Array.iter
    (fun c ->
      if not (Float.is_finite c) || c < 0. then
        invalid_arg "Epsilon_routing.create: costs must be finite and >= 0")
    costs;
  let n = Array.length costs in
  let t =
    { rng;
      costs = Array.copy costs;
      epsilon;
      weights = Array.make n 0.;
      cum = Float.Array.create n }
  in
  rebuild t;
  t

(* Retune the dial on a live sampler: the adaptive adversary adjusts
   epsilon between epochs without disturbing the RNG stream. *)
let set_epsilon t ~epsilon =
  if epsilon < 0. then
    invalid_arg "Epsilon_routing.set_epsilon: negative epsilon";
  t.epsilon <- epsilon;
  rebuild t

let epsilon t = t.epsilon

let of_hop_counts rng ~epsilon ~hop_counts =
  if Array.length hop_counts = 0 then
    invalid_arg "Epsilon_routing.of_hop_counts: no paths";
  let min_hops = Array.fold_left min max_int hop_counts in
  (* Filled in place: an [Array.map] closure would return each cost as a
     boxed float, which tools/lint_box.sh would flag. *)
  let costs = Array.make (Array.length hop_counts) 0. in
  Array.iteri (fun i h -> costs.(i) <- float_of_int (h - min_hops)) hop_counts;
  create rng ~epsilon ~costs

let for_lattice rng ~epsilon (lattice : Topo.Multipath_lattice.t) =
  of_hop_counts rng ~epsilon ~hop_counts:lattice.Topo.Multipath_lattice.hop_counts

let weights t = Array.copy t.weights

(* Same draw and same scan as [Sim.Rng.choose t.rng t.weights] — the
   cumulative sums were built with the identical left-associated float
   additions, so the chosen indices are bit-for-bit unchanged. *)
let sample t =
  let n = Float.Array.length t.cum in
  let total = Float.Array.unsafe_get t.cum (n - 1) in
  let target = Sim.Rng.float t.rng *. total in
  let i = ref 0 in
  while !i < n - 1 && not (target < Float.Array.unsafe_get t.cum !i) do
    incr i
  done;
  !i

let route t routes = routes.(sample t)
