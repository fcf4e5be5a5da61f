type payload = ..

type payload += Raw of int

type payload += Recycled

type t = {
  mutable uid : int;
  mutable flow : int;
  mutable src : int;
  mutable dst : int;
  mutable size : int;
  mutable payload : payload;
  mutable route : int array;
  mutable next_hop : int;
  mutable hops : int;
}

(* Routes are validated in O(1) — the last element must be the
   destination — so the check is cheap enough to keep in release
   builds (the seed walked an [int list] per packet). The full
   elementwise sanity walk is debug-only. *)
let debug_checks =
  match Sys.getenv_opt "TCP_PR_DEBUG_PACKETS" with
  | Some ("" | "0" | "false") | None -> false
  | Some _ -> true

let route_ends_at route dst =
  let n = Array.length route in
  n > 0 && route.(n - 1) = dst

let create ~uid ~flow ~src ~dst ~size ~route payload =
  assert (size > 0);
  assert (route_ends_at route dst);
  if debug_checks then
    Array.iter (fun hop -> assert (hop >= 0)) route;
  { uid; flow; src; dst; size; payload; route; next_hop = 0; hops = 0 }

let reinit t ~uid ~flow ~src ~dst ~size ~route payload =
  assert (size > 0);
  assert (route_ends_at route dst);
  if debug_checks then
    Array.iter (fun hop -> assert (hop >= 0)) route;
  t.uid <- uid;
  t.flow <- flow;
  t.src <- src;
  t.dst <- dst;
  t.size <- size;
  t.payload <- payload;
  t.route <- route;
  t.next_hop <- 0;
  t.hops <- 0

let route_exhausted t = t.next_hop >= Array.length t.route

let pp ppf t =
  Format.fprintf ppf "packet<uid=%d flow=%d %d->%d size=%d hops=%d>" t.uid
    t.flow t.src t.dst t.size t.hops
