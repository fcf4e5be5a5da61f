let periodic engine ~interval ~until f =
  if interval <= 0. then invalid_arg "Probe: non-positive interval";
  let rec schedule time =
    if time <= until then
      Sim.Engine.schedule_at engine ~time (fun () ->
          f time;
          schedule (time +. interval))
  in
  schedule (Sim.Engine.now engine +. interval)

let cwnd_series engine connection ~interval ~until =
  let series = Stats.Timeseries.create () in
  periodic engine ~interval ~until (fun time ->
      Stats.Timeseries.record series ~time (Tcp.Connection.cwnd connection));
  series

let goodput_series engine connection ~interval ~until =
  let series = Stats.Timeseries.create () in
  let previous = ref 0 in
  periodic engine ~interval ~until (fun time ->
      let bytes = Tcp.Connection.received_bytes connection in
      let mbps =
        float_of_int (bytes - !previous) *. 8. /. interval /. 1e6
      in
      previous := bytes;
      Stats.Timeseries.record series ~time mbps);
  series
