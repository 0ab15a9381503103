type params = {
  delay_mean : float;
  delay_jitter : float;
  loss_prob : float;
  dup_prob : float;
}

let default =
  { delay_mean = 0.005; delay_jitter = 0.002; loss_prob = 0.0; dup_prob = 0.0 }

let lossy p = { default with loss_prob = p }

let quiet = { delay_mean = 0.0; delay_jitter = 0.0; loss_prob = 0.0; dup_prob = 0.0 }

(* The conditional draws (jitter, duplication) and the [up] short-circuit
   are load-bearing — they fix the RNG consumption sequence that same-seed
   traces depend on. *)

let sample_delay_p p rng =
  let jitter =
    if p.delay_jitter <= 0.0 then 0.0 else Dvp_util.Rng.float rng p.delay_jitter
  in
  Float.max 1e-6 (p.delay_mean +. jitter)

let drops_p p ~up rng = (not up) || Dvp_util.Rng.bernoulli rng p.loss_prob

let duplicates_p p rng = p.dup_prob > 0.0 && Dvp_util.Rng.bernoulli rng p.dup_prob
