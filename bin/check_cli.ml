(* repro check — systematic schedule exploration of the lock-free pool
   and deque through the Schedpoint yield points.

   Fully deterministic: for a fixed (seed, budget, depth, scenario set)
   the report printed on stdout is byte-identical across runs, failures
   included — the explorer serialises the controlled threads, so the
   interleaving is a pure function of the seeded choice stream.  A
   failing schedule is shrunk to a minimal decision trace and written to
   a replay file; `repro check --replay FILE` re-executes exactly that
   schedule. *)

module Explore = Dfd_check.Explore
module Scenarios = Dfd_check.Scenarios

(* Every scenario, the deliberately buggy ones first. *)
let catalogue =
  Scenarios.lfdeque_buggy :: Scenarios.lfdeque_publish_buggy :: Scenarios.multiq_buggy
  :: Scenarios.park_buggy :: Scenarios.all

let list_scenarios () =
  List.iter
    (fun s ->
      Printf.printf "%-16s %d threads  %s\n" s.Explore.name s.Explore.n_threads s.Explore.descr)
    catalogue;
  0

let replay_file path =
  match Explore.read_replay path with
  | exception e ->
    Printf.eprintf "check: cannot read replay file %s: %s\n" path (Printexc.to_string e);
    2
  | f -> (
    match Scenarios.find f.Explore.f_scenario with
    | None ->
      Printf.eprintf "check: replay file names unknown scenario %s\n" f.Explore.f_scenario;
      2
    | Some scenario -> (
      Printf.printf "replaying %s: scenario=%s seed=%d iteration=%d (%d decisions)\n" path
        f.Explore.f_scenario f.Explore.f_seed f.Explore.f_iteration
        (List.length f.Explore.f_choices);
      match Explore.replay scenario f with
      | Some reason ->
        Printf.printf "reproduced: %s\n" reason;
        0
      | None ->
        Printf.printf "NOT reproduced: the recorded schedule passes\n";
        1))

let run_check ~seed ~budget ~depth ~scenario ~replay ~replay_out ~list =
  if list then list_scenarios ()
  else
    match replay with
    | Some path -> replay_file path
    | None -> (
      let scenarios =
        match scenario with
        | None -> Scenarios.all
        | Some name -> (
          match Scenarios.find name with
          | Some s -> [ s ]
          | None ->
            Printf.eprintf "check: unknown scenario %s; known: %s\n" name
              (String.concat ", "
                 (List.map (fun s -> s.Explore.name) catalogue));
            exit 2)
      in
      let failed = ref None in
      List.iter
        (fun s ->
          if !failed = None then begin
            let r = Explore.run ~budget ~depth ~seed s in
            Format.printf "check: %a@." Explore.pp_report r;
            match r.Explore.r_failure with
            | None -> ()
            | Some f -> failed := Some f
          end)
        scenarios;
      match !failed with
      | None -> 0
      | Some f ->
        let out =
          match replay_out with
          | Some p -> p
          | None -> Printf.sprintf "replay_%s_%d.json" f.Explore.f_scenario seed
        in
        Explore.write_replay out f;
        Printf.printf "replay file written to %s (rerun: repro check --replay %s)\n" out out;
        1)
