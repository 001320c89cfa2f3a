#!/usr/bin/env bash
# Tier-1 CI gate. Runs, in order:
#   1. the default test suite (pytest.ini excludes -m perf),
#   2. the serve suite explicitly (fault-tolerant control service,
#      including the fault-schedule soak smoke test),
#   3. the scenario fuzz stage: the seeded spec fuzzer widened to 50
#      distinct scenarios (tier-1 runs 8), every one driven through the
#      reference object engine and SoA with conservation/round-trip
#      property checks and a fixed per-case time budget,
#   4. the perf gate: three perfbench runs of every workload, each
#      end-to-end metric's median within its BENCHMARK.json bound of the
#      committed benchmarks/perfbench_baseline.json (perfbench pins BLAS
#      to one thread and host-scales its CPU clocks),
#   5. the benchmark's own self-tests (perfbench/: metric coverage,
#      correctness checks and tracing, at tiny sizes),
#   6. the lockstep routing stage: one short traced 6x6 B=8 shared
#      rollout that must be correct (the traced run reproduces the
#      untraced waits and counts) with zero per-env extraction
#      fallback steps, so the array routing path stays engaged,
#   7. the serve stage: one short traced 6x6 serving run under
#      controller deaths and message delay that must be correct with
#      zero failed decisions and zero deadline misses, so the serial
#      array path (B=1 extractor, array routing) stays healthy, and
#      that must step the SoA engine and never the object engine, so
#      serving stays on the production engine,
#   8. the train stage: one short traced 6x6 B=8 shared training run
#      that must be correct with zero failed operations and at least
#      one PPO update, so the grouped LSTM trunk kernel stays on the
#      traced update path,
#   9. the coverage floors (stdlib trace; no coverage package):
#      src/repro/obs and src/repro/scenarios.
#
# Usage, from the repository root:
#   bash scripts/run_ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== tier-1 test suite =="
python -m pytest

echo "== serve suite (control service + soak smoke) =="
python -m pytest -m serve

echo "== scenario fuzz stage (50 fuzzed specs, fixed seed, per-case budget) =="
REPRO_FUZZ_CASES=50 REPRO_FUZZ_SEED=20260808 REPRO_FUZZ_CASE_BUDGET_S=30 \
    python -m pytest tests/scenarios/test_fuzz_zoo.py -q

echo "== perf gate (perfbench, median of 3 runs vs committed baseline) =="
python scripts/check_perf_regression.py

echo "== benchmark self-tests (perfbench) =="
python -m pytest perfbench -q

echo "== lockstep routing stage (traced 6x6 B=8 shared rollout) =="
python3 perfbench/run.py --workload rollout_6x6_shared_b8 --seed 1 --seconds 2 --trace 1 \
    | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
fallback = result["metrics"]["eval.batched_obs.fallback_steps"]["value"]
print("correct=%s fallback_steps=%s" % (result["correct"], fallback))
if not result["correct"] or fallback != 0:
    sys.exit("lockstep routing stage failed")
'

echo "== serve stage (traced 6x6 serving under controller + message faults) =="
python3 perfbench/run.py --workload serve_6x6_faults --seed 1 --seconds 2 --trace 1 \
    | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
metrics = result["metrics"]
misses = metrics["serve.deadline_misses"]["value"]
soa_steps = metrics["sim.soa.step.calls"]["value"]
object_steps = metrics["sim.engine.step.calls"]["value"]
print("correct=%s failed=%s deadline_misses=%s soa_steps=%s object_steps=%s"
      % (result["correct"], result["failed"], misses, soa_steps, object_steps))
if not result["correct"] or result["failed"] != 0 or misses != 0:
    sys.exit("serve stage failed")
if soa_steps <= 0 or object_steps != 0:
    sys.exit("serve stage failed: serving must step the SoA engine only")
'

echo "== train stage (traced 6x6 B=8 shared training with PPO updates) =="
python3 perfbench/run.py --workload train_6x6_shared_b8 --seed 1 --seconds 7 --trace 1 \
    | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
updates = result["metrics"]["rl.ppo.update.calls"]["value"]
print("correct=%s failed=%s ppo_updates=%s" % (result["correct"], result["failed"], updates))
if not result["correct"] or result["failed"] != 0 or updates <= 0:
    sys.exit("train stage failed")
'

echo "== telemetry coverage floor (src/repro/obs) =="
python scripts/check_obs_coverage.py

echo "== scenario coverage floor (src/repro/scenarios) =="
python scripts/check_obs_coverage.py --package repro.scenarios --floor 85

echo "CI OK"
