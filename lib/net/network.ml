(* Node ids fit in 20 bits so an ordered (src, dst) pair packs into one
   immediate int — adjacency lookups on the forwarding path then hash an
   int instead of allocating-and-hashing a tuple key. *)
let max_nodes = 1 lsl 20

let adj_key src dst = (src lsl 20) lor dst

type t = {
  engine : Sim.Engine.t;
  mutable nodes : Node.t array;
  mutable node_count : int;
  adjacency : (int, Link.t) Hashtbl.t;
  mutable links_rev : Link.t list;
  (* Outgoing neighbours in creation order, for deterministic BFS. *)
  neighbours : (int, int list ref) Hashtbl.t;
  pool : Packet_pool.t;
  mutable next_uid : int;
  mutable next_link_id : int;
}

let create engine =
  { engine;
    nodes = Array.make 16 (Node.create ~id:(-1));
    node_count = 0;
    adjacency = Hashtbl.create 64;
    links_rev = [];
    neighbours = Hashtbl.create 64;
    pool = Packet_pool.create ();
    next_uid = 0;
    next_link_id = 0 }

let engine t = t.engine

let pool t = t.pool

let node t id =
  if id < 0 || id >= t.node_count then
    invalid_arg (Printf.sprintf "Network.node: unknown id %d" id);
  t.nodes.(id)

let node_count t = t.node_count

let forward t node packet =
  if Packet.route_exhausted packet then begin
    (* No hops left. If the packet is addressed here after all, deliver
       it (so originating to oneself still reaches the handler);
       otherwise it dead-ends — count it stranded instead of looping. *)
    if packet.Packet.dst = Node.id node then Node.receive node packet
    else Node.strand node packet
  end
  else begin
    let next = packet.Packet.route.(packet.Packet.next_hop) in
    if next < 0 || next >= max_nodes then Node.strand node packet
    else
      match Hashtbl.find t.adjacency (adj_key (Node.id node) next) with
      | link ->
        packet.Packet.next_hop <- packet.Packet.next_hop + 1;
        Link.send link packet
      | exception Not_found ->
        (* Route names a non-adjacent node: malformed topology; treat
           the packet as stranded rather than failing the whole run. *)
        Node.strand node packet
  end

let release_packet t packet = Packet_pool.release t.pool packet

let add_node t =
  if t.node_count >= max_nodes then
    invalid_arg "Network.add_node: node id space exhausted";
  if t.node_count = Array.length t.nodes then begin
    let bigger = Array.make (2 * t.node_count) t.nodes.(0) in
    Array.blit t.nodes 0 bigger 0 t.node_count;
    t.nodes <- bigger
  end;
  let n = Node.create ~id:t.node_count in
  Node.set_forward n (forward t);
  Node.set_recycle n (release_packet t);
  t.nodes.(t.node_count) <- n;
  t.node_count <- t.node_count + 1;
  n

let add_nodes t count = List.init count (fun _ -> add_node t)

let add_link t ~src ~dst ~bandwidth_bps ~delay_s ~capacity ?loss ?qdisc ?jitter () =
  let src_id = Node.id src and dst_id = Node.id dst in
  let key = adj_key src_id dst_id in
  if Hashtbl.mem t.adjacency key then
    invalid_arg
      (Printf.sprintf "Network.add_link: duplicate link %d->%d" src_id dst_id);
  let link =
    Link.create t.engine ~id:t.next_link_id ~src:src_id ~dst:dst_id
      ~bandwidth_bps ~delay_s ~capacity ?loss ?qdisc ?jitter ()
  in
  t.next_link_id <- t.next_link_id + 1;
  Link.set_deliver link (fun packet -> Node.receive dst packet);
  Link.set_recycle link (release_packet t);
  Hashtbl.replace t.adjacency key link;
  t.links_rev <- link :: t.links_rev;
  let cell =
    match Hashtbl.find_opt t.neighbours src_id with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Hashtbl.replace t.neighbours src_id cell;
      cell
  in
  cell := dst_id :: !cell;
  link

let add_duplex t ~src ~dst ~bandwidth_bps ~delay_s ~capacity ?loss ?jitter () =
  let fwd =
    add_link t ~src ~dst ~bandwidth_bps ~delay_s ~capacity ?loss ?jitter ()
  in
  let rev =
    add_link t ~src:dst ~dst:src ~bandwidth_bps ~delay_s ~capacity ?loss
      ?jitter ()
  in
  (fwd, rev)

let link_between t ~src ~dst =
  if src < 0 || src >= max_nodes || dst < 0 || dst >= max_nodes then None
  else Hashtbl.find_opt t.adjacency (adj_key src dst)

let links t = List.rev t.links_rev

let fresh_uid t =
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  uid

let make_packet t ~flow ~src ~dst ~size ~route payload =
  Packet_pool.acquire t.pool ~uid:(fresh_uid t) ~flow ~src ~dst ~size ~route
    payload

let originate t ~from packet = forward t from packet

let neighbours_of t id =
  match Hashtbl.find_opt t.neighbours id with
  | Some cell -> List.rev !cell
  | None -> []

let shortest_path t ~src ~dst =
  if src = dst then Some []
  else begin
    let parent = Hashtbl.create 16 in
    let queue = Queue.create () in
    Queue.push src queue;
    Hashtbl.replace parent src src;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let current = Queue.pop queue in
      let visit next =
        if not (Hashtbl.mem parent next) then begin
          Hashtbl.replace parent next current;
          if next = dst then found := true else Queue.push next queue
        end
      in
      List.iter visit (neighbours_of t current)
    done;
    if not !found then None
    else begin
      let rec build node acc =
        if node = src then acc
        else build (Hashtbl.find parent node) (node :: acc)
      in
      Some (build dst [])
    end
  end

let total_queue_drops t =
  List.fold_left (fun acc link -> acc + Link.queue_drops link) 0 (links t)

let total_injected_losses t =
  List.fold_left (fun acc link -> acc + Link.injected_losses link) 0 (links t)
