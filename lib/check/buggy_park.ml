(* The park decision in the wrong order: scan for queued work, then
   announce.  See the interface for the lost wake-up this lets through. *)

module Pool = Dfd_runtime.Pool
module Schedpoint = Dfd_structures.Schedpoint

let park_check pool =
  let idle = Pool.For_testing.live_tasks pool = 0 in
  Schedpoint.point Schedpoint.pool_park_scan;
  Pool.For_testing.announce_park pool;
  idle
