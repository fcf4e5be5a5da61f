let name = "NewReno"

type t = Newreno_core.t

let create config = Newreno_core.create ~strategy:Newreno_core.default_strategy config

let reset = Newreno_core.reset

let start = Newreno_core.start

let on_ack = Newreno_core.on_ack

let on_timer = Newreno_core.on_timer

let cwnd = Newreno_core.cwnd

let acked = Newreno_core.acked

let finished = Newreno_core.finished

let metrics = Newreno_core.metrics
