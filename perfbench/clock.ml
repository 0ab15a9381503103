(* Monotonic nanosecond clock (clock_gettime through bechamel's stub): spans
   of a microsecond or less need better than gettimeofday's resolution, and
   wall-clock steps must not bend measured intervals. *)

let now_ns () = Bechamel.Toolkit.Monotonic_clock.get ()

let now_s () = now_ns () *. 1e-9
