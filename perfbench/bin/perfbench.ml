(* The layered benchmark's executable.  perfbench/run.py builds and runs
   it; see perfbench/README.md for the workloads and metrics.

     perfbench.exe --workload forkjoin --seed 1 --seconds 20 --trace 0

   The last line of standard output is the result object; the line
   before it is the environment stamp. *)

open Common

let workloads = [ "forkjoin"; "sort"; "service"; "simulate" ]

let sizes = function
  | ("forkjoin" | "sort") as w -> Native.sizes w
  | "service" -> Svc.sizes
  | _ -> Sim.sizes

let end_to_end ~seed ~seconds ~tally = function
  | ("forkjoin" | "sort") as w -> Native.end_to_end ~seed ~seconds ~tally w
  | "service" -> Svc.end_to_end ~seed ~seconds ~tally
  | _ -> Sim.end_to_end ~seed ~seconds ~tally

let write_spans file spans =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Spans.write_json oc spans)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let spans_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, " measured seconds per run");
      ("--trace", Arg.Set_int trace, " 0 = end-to-end metrics, 1 = traced per-layer run");
      ("--spans", Arg.Set_string spans_file, " where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1 [--spans FILE]";
  if not (List.mem !workload workloads) then failwith ("unknown workload: " ^ !workload);
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then
    failwith "need --seed >= 0, --seconds > 0 and --trace 0|1";
  let seed = !seed and seconds = !seconds and workload = !workload in
  let tally = tally () in
  let metrics, sizes =
    if !trace = 0 then
      let metrics = end_to_end ~seed ~seconds ~tally workload in
      (metrics @ [ ("peak_rss_mb", peak_rss_mb (), "MiB") ], sizes workload)
    else begin
      let metrics, spans = Traced.run ~seed ~seconds ~tally workload in
      if !spans_file <> "" then write_spans !spans_file spans;
      (metrics, List.map (fun w -> (w, Json.Assoc (sizes w))) workloads)
    end
  in
  let env =
    Json.Assoc
      [
        ("workload", Json.String workload);
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Int !trace);
        ("ocaml_version", Json.String Sys.ocaml_version);
        ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
        ("sizes", Json.Assoc sizes);
      ]
  in
  print_endline (Json.to_string (Json.Assoc [ ("env", env) ]));
  Option.iter (fun e -> prerr_endline ("perfbench: first failure: " ^ e)) tally.first_error;
  print_endline (Json.to_string (result_json tally metrics))
