#!/bin/sh
# Repo health check: build, tests, formatting (when ocamlformat is
# available), chaos and bench smoke runs, and the regression gate.  Needs
# only dune and a POSIX shell.
#
#   scripts/check.sh
#
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @runtest =="
dune build @runtest

# One record format, owned by lib/core/log_event.ml: nothing under lib/ may
# fall back to Marshal, whose bytes follow the OCaml type layout, so a file
# written by another build would be misread instead of refused.
echo "== no Marshal under lib/ =="
if grep -rn Marshal lib; then
  echo "Marshal is used under lib/; encode log records with Log_event" >&2
  exit 1
fi

# One timer queue: both substrates arm their timers on Dvp_util.Timer_wheel.
# The binary heap stays in lib/util only as the reference order the wheel is
# tested against; nothing else under lib/ may schedule on it.
echo "== no second timer queue under lib/ =="
if grep -rnE 'Dvp_util\.Heap|module Heap\b' lib | grep -vE '^lib/util/heap\.mli?:'; then
  echo "a Heap timer queue is used under lib/; arm timers on Timer_wheel" >&2
  exit 1
fi

# @fmt needs the ocamlformat binary, which not every environment carries.
if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed) =="
fi

# Chaos smoke: seeded fault-schedule fuzzing with the invariant oracle.
# 25 seeds keeps CI fast; nightly runs can widen the sweep with e.g.
#   CHAOS_SEEDS=500 scripts/check.sh
# A nonzero exit here means an invariant violation — the output names the
# reproducing seed and the shrunk fault schedule.
CHAOS_SEEDS="${CHAOS_SEEDS:-25}"
echo "== dvp-cli chaos --seeds $CHAOS_SEEDS =="
dune exec bin/dvp_cli.exe -- chaos --seeds "$CHAOS_SEEDS"

# Degraded-mode chaos: every seed permanently kills one site with the
# failure detector and auto-evacuation armed; the oracle must see
# conservation hold through detection, breaker parking, and evacuation.
KILLER_SEEDS="${KILLER_SEEDS:-15}"
echo "== dvp-cli chaos --profile killer --seeds $KILLER_SEEDS =="
dune exec bin/dvp_cli.exe -- chaos --profile killer --seeds "$KILLER_SEEDS"

# Elastic-membership chaos: seeds mix live joins, graceful leaves, and
# auto-rebalancing on top of crashes, partitions, and loss.  The oracle
# must see conservation and exactly-once delivery hold across every epoch
# bump and Vm channel reset.  Widen with e.g. CHURN_SEEDS=200.
CHURN_SEEDS="${CHURN_SEEDS:-10}"
echo "== dvp-cli chaos --profile churn --seeds $CHURN_SEEDS =="
dune exec bin/dvp_cli.exe -- chaos --profile churn --seeds "$CHURN_SEEDS"

# Analyze smoke: the trace tour writes a JSONL trace into artifacts/, and
# the analyzer must read it back; `analyze` exits nonzero when the dump holds
# no events.  That a real run's dump reconstructs to transaction spans and
# Vm lifecycles is test_obs "injected violation dumps" in @runtest above.
echo "== dvp-cli analyze smoke run =="
dune exec examples/trace_tour.exe >/dev/null
dune exec bin/dvp_cli.exe -- analyze artifacts/trace_tour.jsonl >/dev/null
dune exec bin/dvp_cli.exe -- analyze artifacts/trace_tour.jsonl --json >/dev/null

# Bench JSON smoke: the harness writes BENCH_E1.json.  The fields a
# BENCH_<id>.json carries are bench/test/test_gate.ml "BENCH layout" in @runtest.
echo "== bench E1 --json smoke run =="
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
dune exec bench/main.exe -- E1 --out "$tmpdir" >/dev/null
test -s "$tmpdir/BENCH_E1.json" || {
  echo "BENCH_E1.json was not written" >&2
  exit 1
}

# DES backup smoke: a run's exported logs restore into a system of the same
# shape (restore exits 1 unless value is conserved), and a restore into
# fewer sites than the backup holds logs for must refuse, not drop value.
echo "== backup smoke: run --export, restore =="
dune exec bin/dvp_cli.exe -- run --duration 2 --export "$tmpdir/bk" >/dev/null
dune exec bin/dvp_cli.exe -- restore --dir "$tmpdir/bk" >/dev/null
if dune exec bin/dvp_cli.exe -- restore --dir "$tmpdir/bk" --sites 4 >/dev/null 2>&1; then
  echo "restore into 4 sites accepted a 6-site backup" >&2
  exit 1
fi

# Multicore smoke: a short closed-loop run on the domains runtime; `bench
# --wall` exits nonzero unless value is conserved at quiesce.  That the loop
# commits is test_wallobs "live feed" in @runtest and the gate's E20_wall
# committed contract.  Parallelism is only real with >= 2 cores; single-core
# hosts (and the DES-only CI lanes) skip it.  Width via DOMAINS.
DOMAINS="${DOMAINS:-2}"
cores=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$cores" -ge 2 ]; then
  echo "== multicore smoke: bench --wall --domains $DOMAINS =="
  dune exec bin/dvp_cli.exe -- bench --wall --domains "$DOMAINS" --duration 0.5 >/dev/null

  # Wall observability smoke: the same closed loop with the per-domain trace
  # shards, the live stats feed, and the conservation watchdog all armed.
  # The bench exits nonzero on any watchdog alarm or lost value, and the
  # analyzer on an empty dump.  That the merged dump is complete and
  # reconstructs to exactly the commits Metrics counted is test_wallobs
  # "wall spans = metrics" in @runtest and the gate's E22_trace contract.
  echo "== wall observability smoke: tracing + watchdog at $DOMAINS domains =="
  obs_dir="$tmpdir/obs"
  mkdir -p "$obs_dir"
  dune exec bin/dvp_cli.exe -- bench --wall --domains "$DOMAINS" --duration 0.3 \
    --trace-out "$obs_dir/trace.jsonl" --stats-out "$obs_dir/stats.jsonl" \
    --watchdog >/dev/null
  test -s "$obs_dir/stats.jsonl" || {
    echo "wall smoke: no stats feed written" >&2
    exit 1
  }
  dune exec bin/dvp_cli.exe -- analyze "$obs_dir/trace.jsonl" >/dev/null
else
  echo "== skipping multicore smoke (host has $cores core(s), need >= 2) =="
fi

# Wall-clock chaos smoke: seeded crash-restart fuzzing on the real domains
# runtime — hard kills mid-traffic, torn WAL tails, WAL sink faults, and
# link storms, with the freeze-barrier cut oracle and, at quiesce, the
# stable-log audit the DES chaos runs too (Oracle.check_logs over every WAL
# file, against the live fragments and in-flight value).  The bounded profile keeps plans small and shrinks on
# failure.  One killer seed adds the permanent kill and the end-of-run
# revival.  Real parallelism (and a meaningful kill of a *running* domain)
# needs >= 2 cores; below that the stage is skipped with a notice.  Widen
# with e.g. WALL_CHAOS_SEEDS=20.
WALL_CHAOS_SEEDS="${WALL_CHAOS_SEEDS:-2}"
if [ "$cores" -ge 2 ]; then
  echo "== dvp-cli chaos --wall --profile bounded --seeds $WALL_CHAOS_SEEDS =="
  dune exec bin/dvp_cli.exe -- chaos --wall --profile bounded \
    --seeds "$WALL_CHAOS_SEEDS"
  echo "== dvp-cli chaos --wall --profile killer --seeds 1 =="
  dune exec bin/dvp_cli.exe -- chaos --wall --profile killer --seeds 1
else
  echo "== skipping wall chaos smoke (host has $cores core(s), need >= 2) =="
fi

# Benchmark smoke: each workload of BENCHMARK.json runs for 2 s untraced
# and must pass the benchmark's own correctness checks — exit 0 with
# "correct":true on its result line (the last line of its output).
echo "== perfbench smoke: 2 s per workload =="
for workload in escrow-local transfer-durable des-fleet; do
  out=$(dune exec --display quiet -- ./perfbench/main.exe --workload "$workload" \
    --seconds 2 --trace 0) || {
    echo "perfbench $workload: exited non-zero" >&2
    exit 1
  }
  result=$(printf '%s\n' "$out" | tail -n 1)
  case "$result" in
    *'"correct":true'*) echo "perfbench $workload: correct" ;;
    *)
      echo "perfbench $workload: result is not correct: $result" >&2
      exit 1
      ;;
  esac
done

# Perf smoke: the micro benches in quick mode (shakes out bitrot in the
# bench harness itself), then the regression gate: every gated experiment
# judged against the contract in its bench/baselines/BENCH_<id>.json.
echo "== perf smoke: micro --quick =="
dune exec bench/main.exe -- micro --quick >/dev/null
echo "== regression gate: bench/main.exe gate =="
dune exec bench/main.exe -- gate

echo "== all checks passed =="
