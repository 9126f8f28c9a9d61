#!/bin/sh
# Repo health gate: build, tier-1 tests, torture smokes (single-engine,
# sharded, parallel sharded with digest reproducibility, and the epoch
# probe path), a flight-recorder smoke, telemetry and observability
# overhead, shard scaling, probe-bound serving, work-stealing Domain-pool
# parallelism (core-aware: speedups where the cores exist, scheduler
# overhead vs the committed baseline on 1-core hosts), global UB budget
# arbitration, a bench diff against committed baselines, and a
# correctness smoke of the end-to-end serving benchmark (perfbench).
#
# Usage: tools/check.sh [--skip-bench]
#   SKIP_BENCH=1          same as --skip-bench
#   MAX_REGRESSION_PCT=N  override the telemetry/observability overhead
#                         gates (default 5)
#   BENCH_ARGS="..."      extra args for the benches (e.g. --full)
set -eu

cd "$(dirname "$0")/.."

skip_bench="${SKIP_BENCH:-0}"
[ "${1:-}" = "--skip-bench" ] && skip_bench=1
max_pct="${MAX_REGRESSION_PCT:-5}"

echo "== dune build"
dune build

echo "== dune runtest (tier 1)"
dune runtest

echo "== torture smoke (fixed seed, oracle must stay silent)"
torture_out=$(dune exec bin/pmvctl.exe -- torture --seed 42 --events 400) || {
  echo "$torture_out"
  echo "FAIL: torture campaign reported oracle violations" >&2
  exit 1
}
echo "$torture_out"
# the smoke must actually inject faults: WAL crashes, lock conflicts,
# I/O errors and forced deferrals all > 0
echo "$torture_out" | tr ' ' '\n' |
  awk -F= '/^(crashes|lock_rejects|io_faults|deferrals)=/ { n++; if ($2 + 0 == 0) bad = 1 }
           END { exit !(n == 4 && !bad) }' || {
  echo "FAIL: torture smoke injected too few fault classes" >&2
  exit 1
}

echo "== sharded torture smoke (4 hash-partitioned engines, merged oracle must stay silent)"
shard_out=$(dune exec bin/pmvctl.exe -- torture --seed 42 --events 200 --shards 4) || {
  echo "$shard_out"
  echo "FAIL: sharded torture campaign reported oracle violations" >&2
  exit 1
}
echo "$shard_out"
# shard-scoped faults must actually fire (no WAL crashes by design)
echo "$shard_out" | tr ' ' '\n' |
  awk -F= '/^(lock_rejects|io_faults|deferrals)=/ { n++; if ($2 + 0 == 0) bad = 1 }
           END { exit !(n == 3 && !bad) }' || {
  echo "FAIL: sharded torture smoke injected too few fault classes" >&2
  exit 1
}

echo "== work-stealing torture smoke (4 shards x 4 domains, digest reproducible under stealing)"
par_out=$(dune exec bin/pmvctl.exe -- torture --seed 42 --events 200 --shards 4 --domains 4) || {
  echo "$par_out"
  echo "FAIL: parallel sharded torture campaign reported oracle violations" >&2
  exit 1
}
echo "$par_out"
par_out2=$(dune exec bin/pmvctl.exe -- torture --seed 42 --events 200 --shards 4 --domains 4) || {
  echo "FAIL: parallel sharded torture rerun reported oracle violations" >&2
  exit 1
}
digest1=$(echo "$par_out" | tr ' ' '\n' | awk -F= '/^digest=/ { print $2; exit }')
digest2=$(echo "$par_out2" | tr ' ' '\n' | awk -F= '/^digest=/ { print $2; exit }')
if [ -z "$digest1" ] || [ "$digest1" != "$digest2" ]; then
  echo "FAIL: parallel torture digest not reproducible (${digest1:-none} vs ${digest2:-none})" >&2
  exit 1
fi
echo "digest reproducible across runs: $digest1"

echo "== epoch-path torture cross-check (same seed, lock-free probe reads)"
# same campaign as the sharded smoke but answering through the epoch
# fast path; the oracle must stay just as silent. Digests legitimately
# differ across probe paths (cache admission order changes), so only
# the verdict is gated.
epoch_out=$(dune exec bin/pmvctl.exe -- torture --seed 42 --events 200 --shards 4 --probe-path epoch) || {
  echo "$epoch_out"
  echo "FAIL: epoch-path torture campaign reported oracle violations" >&2
  exit 1
}
echo "$epoch_out"

echo "== query-shape smoke (each Section 3.6 shape oracle-clean at 1 and 4 shards, both probe paths)"
# the shapes suite runs the per-shape differential properties —
# distinct / grouped / ordered first-k / exists against the
# brute-force oracle across 1-4 shards and locked+epoch reads — plus
# the pinned regression seed corpus
dune exec test/test_main.exe -- test shapes || {
  echo "FAIL: a Section 3.6 query shape diverged from the oracle" >&2
  exit 1
}

echo "== flight recorder smoke (forced fault -> non-empty, time-ordered, digest-stable dump)"
# a short faulted workload so the ring does not wrap past the early
# Fault_hit: the dump must capture the injected maintain.apply, be
# globally time-ordered, and digest identically on a same-seed rerun
# (the digest covers what happened, never when)
fl1=$(dune exec bin/pmvctl.exe -- flight --seed 42 --queries 20 --fault maintain.apply)
fl2=$(dune exec bin/pmvctl.exe -- flight --seed 42 --queries 20 --fault maintain.apply)
echo "$fl1" | grep "flight recorder:"
echo "$fl1" | grep -q "fault.hit" || {
  echo "FAIL: forced maintain.apply fault not captured in the flight dump" >&2
  exit 1
}
echo "$fl1" | awk '$1 ~ /^#/ { n++; if ($2 + 0 < prev) bad = 1; prev = $2 + 0 }
                   END { exit !(n > 0 && !bad) }' || {
  echo "FAIL: flight dump empty or not time-ordered" >&2
  exit 1
}
fd1=$(echo "$fl1" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
fd2=$(echo "$fl2" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
if [ -z "$fd1" ] || [ "$fd1" != "$fd2" ]; then
  echo "FAIL: flight digest not reproducible (${fd1:-none} vs ${fd2:-none})" >&2
  exit 1
fi
echo "flight digest reproducible across runs: $fd1"

echo "== perfbench correctness smoke (oracle sample, check_view, replay fingerprints)"
# a short end-to-end run per workload: correctness only, never speed,
# so it runs even with --skip-bench. The last stdout line is the JSON
# result; it must report correct with zero failed operations.
for workload in read_cold sharded_mix; do
  pb_last=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
  echo "$workload: $pb_last" | cut -c 1-200
  echo "$pb_last" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' || {
    echo "FAIL: perfbench $workload smoke not correct (or failed > 0)" >&2
    exit 1
  }
done

if [ "$skip_bench" = "1" ]; then
  echo "== telemetry overhead and shard scaling gates skipped"
  exit 0
fi

echo "== telemetry overhead gate (< ${max_pct}%)"
# the bench's floor estimator absorbs bursty noise internally; the
# retries (with a cool-down, so one multi-minute contention window
# cannot eat them back-to-back) cover a fully contended run — a real
# regression fails every attempt
tm_ok=0
for attempt in 1 2 3; do
  if [ "$attempt" != "1" ]; then
    echo "telemetry gate missed; cooling down before retry $attempt (noisy host)"
    sleep 20
  fi
  dune exec bench/main.exe -- telemetry ${BENCH_ARGS:-}
  pct=$(awk -F': ' '/"regression_pct"/ { gsub(/[ ,]/, "", $2); print $2 }' BENCH_telemetry.json)
  if [ -z "$pct" ]; then
    echo "FAIL: no regression_pct in BENCH_telemetry.json" >&2
    exit 1
  fi
  echo "telemetry-on vs telemetry-off regression: ${pct}%"
  if awk -v pct="$pct" -v max="$max_pct" 'BEGIN { exit !(pct < max) }'; then
    tm_ok=1
    break
  fi
done
[ "$tm_ok" = "1" ] || {
  echo "FAIL: telemetry overhead ${pct}% >= ${max_pct}% (3 attempts)" >&2
  exit 1
}

echo "== observability overhead gate (< ${max_pct}%)"
# recorder + always-on tracing on the probe-bound epoch regime — the
# serving path where a fixed per-query cost is proportionally largest.
# Same spaced-retry policy as the telemetry gate above.
obs_ok=0
for attempt in 1 2 3; do
  if [ "$attempt" != "1" ]; then
    echo "observability gate missed; cooling down before retry $attempt (noisy host)"
    sleep 20
  fi
  dune exec bench/main.exe -- observability ${BENCH_ARGS:-}
  obs_pct=$(awk -F': ' '/"regression_pct"/ { gsub(/[ ,]/, "", $2); print $2 }' BENCH_observability.json)
  if [ -z "$obs_pct" ]; then
    echo "FAIL: no regression_pct in BENCH_observability.json" >&2
    exit 1
  fi
  echo "observability-on vs observability-off regression: ${obs_pct}%"
  if awk -v pct="$obs_pct" -v max="$max_pct" 'BEGIN { exit !(pct < max) }'; then
    obs_ok=1
    break
  fi
done
[ "$obs_ok" = "1" ] || {
  echo "FAIL: observability overhead ${obs_pct}% >= ${max_pct}% (3 attempts)" >&2
  exit 1
}

echo "== shard scaling + probe-bound gates (scan >= 1.5x at 4 shards; router cache residency beats the engine)"
# correctness (oracle, checksums) fails immediately; the throughput
# thresholds get the same spaced retries as the overhead gates — a
# real regression fails every attempt, a contended run does not
sh_ok=0
for attempt in 1 2 3; do
  if [ "$attempt" != "1" ]; then
    echo "shard throughput gates missed; cooling down before retry $attempt (noisy host)"
    sleep 20
  fi
  dune exec bench/main.exe -- shard ${BENCH_ARGS:-}

  # first occurrences of the shared key names are the scan-bound
  # regime; the probe_bound block uses its own distinct keys
  # (router4_vs_engine, router1_vs_engine)
  speedup=$(awk -F': ' '/"speedup_4_shards"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_shard.json)
  one_shard=$(awk -F': ' '/"one_shard_router_vs_engine"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_shard.json)
  oracle=$(awk -F': ' '/^ *"oracle_clean"/ { gsub(/[ ,}]/, "", $2); print $2; exit }' BENCH_shard.json)
  p_router4=$(awk -F': ' '/"router4_vs_engine"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_shard.json)
  p_router1=$(awk -F': ' '/"router1_vs_engine"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_shard.json)
  p_checksums=$(awk -F': ' '/"checksums_identical"/ { gsub(/[ ,}]/, "", $2); print $2; exit }' BENCH_shard.json)
  if [ -z "$speedup" ] || [ -z "$one_shard" ] || [ -z "$oracle" ] ||
     [ -z "$p_router4" ] || [ -z "$p_router1" ] || [ -z "$p_checksums" ]; then
    echo "FAIL: missing fields in BENCH_shard.json" >&2
    exit 1
  fi
  echo "4-shard speedup: ${speedup}x, 1-shard router vs engine: ${one_shard}x, oracle: ${oracle}"
  echo "probe-bound router4 vs engine: ${p_router4}x, router1 vs engine: ${p_router1}x, checksums identical: ${p_checksums}"
  [ "$oracle" = "true" ] || {
    echo "FAIL: shard bench merged answers violated the oracle" >&2
    exit 1
  }
  [ "$p_checksums" = "true" ] || {
    echo "FAIL: probe-bound answers differ across probe paths or shard counts" >&2
    exit 1
  }
  if awk -v s="$speedup" 'BEGIN { exit !(s >= 1.5) }' &&
     awk -v r="$one_shard" 'BEGIN { exit !(r >= 0.85) }' &&
     awk -v r="$p_router4" 'BEGIN { exit !(r >= 1.0) }' &&
     awk -v r="$p_router1" 'BEGIN { exit !(r >= 0.95) }'; then
    sh_ok=1
    break
  fi
done
[ "$sh_ok" = "1" ] || {
  echo "FAIL: shard gates missed on every attempt (need scan 4-shard >= 1.5x [${speedup}x], 1-shard >= 0.85x [${one_shard}x], probe-bound router4 >= 1.0x [${p_router4}x], router1 >= 0.95x [${p_router1}x])" >&2
  exit 1
}

echo "== grouped-probe shapes gate (4-shard grouped qps holds the 1-shard line, oracle clean)"
# per-query fast-path work is proportional to the result size, not the
# shard count, so fanning the data out must not tax grouped serving;
# same spaced-retry policy as the other throughput gates
shp_ok=0
for attempt in 1 2 3; do
  if [ "$attempt" != "1" ]; then
    echo "shapes gate missed; cooling down before retry $attempt (noisy host)"
    sleep 20
  fi
  dune exec bench/main.exe -- shapes ${BENCH_ARGS:-}
  shp_qps1=$(awk -F': ' '/"qps_1_shard"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_shapes.json)
  shp_qps4=$(awk -F': ' '/"qps_4_shard"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_shapes.json)
  shp_oracle=$(awk -F': ' '/^ *"oracle_clean"/ { gsub(/[ ,}]/, "", $2); print $2; exit }' BENCH_shapes.json)
  if [ -z "$shp_qps1" ] || [ -z "$shp_qps4" ] || [ -z "$shp_oracle" ]; then
    echo "FAIL: missing fields in BENCH_shapes.json" >&2
    exit 1
  fi
  echo "grouped-probe qps: 1 shard ${shp_qps1}, 4 shards ${shp_qps4}, oracle: ${shp_oracle}"
  [ "$shp_oracle" = "true" ] || {
    echo "FAIL: shapes bench answers violated the oracle" >&2
    exit 1
  }
  if awk -v a="$shp_qps4" -v b="$shp_qps1" 'BEGIN { exit !(a >= b) }'; then
    shp_ok=1
    break
  fi
done
[ "$shp_ok" = "1" ] || {
  echo "FAIL: 4-shard grouped-probe qps ${shp_qps4} below 1-shard ${shp_qps1} on every attempt" >&2
  exit 1
}

echo "== parallel gate (work-stealing scheduler: checksums + oracle always; core-aware speedup/overhead gates)"
dune exec bench/main.exe -- parallel ${BENCH_ARGS:-}

applicable=$(awk -F': ' '/"speedup_applicable"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_parallel.json)
checksums=$(awk -F': ' '/"checksums_identical"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_parallel.json)
par_oracle=$(awk -F': ' '/^ *"oracle_clean"/ { gsub(/[ ,}]/, "", $2); print $2; exit }' BENCH_parallel.json)
par_cores=$(awk -F': ' '/"host_cores"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_parallel.json)
# first occurrences are the fan-out sweep; the morsel and shaped blocks
# repeat the keys in that order
fan_speedup=$(awk -F': ' '/"speedup_max_domains"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_parallel.json)
fan_overhead=$(awk -F': ' '/"overhead_1_domain"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_parallel.json)
morsel_overhead=$(awk -F': ' '/"overhead_1_domain"/ { if (++n == 2) { gsub(/[ ,]/, "", $2); print $2; exit } }' BENCH_parallel.json)
if [ -z "$applicable" ] || [ -z "$checksums" ] || [ -z "$par_oracle" ] || [ -z "$fan_speedup" ] || [ -z "$fan_overhead" ]; then
  echo "FAIL: missing fields in BENCH_parallel.json" >&2
  exit 1
fi
[ "$par_oracle" = "true" ] || {
  echo "FAIL: parallel bench answers violated the oracle" >&2
  exit 1
}
[ "$checksums" = "true" ] || {
  echo "FAIL: parallel result streams not checksum-identical to sequential" >&2
  exit 1
}
# every pooled run must snapshot the scheduler counters
grep -q '"sched":' BENCH_parallel.json || {
  echo "FAIL: no work-stealing scheduler counter snapshot in BENCH_parallel.json" >&2
  exit 1
}
if [ "$applicable" = "true" ]; then
  echo "fan-out speedup: ${fan_speedup}x, 1-domain overhead ratio: ${fan_overhead}x"
  awk -v s="$fan_speedup" 'BEGIN { exit !(s >= 1.8) }' || {
    echo "FAIL: fan-out speedup ${fan_speedup}x < 1.8x at max domains" >&2
    exit 1
  }
  awk -v r="$fan_overhead" 'BEGIN { exit !(r >= 0.95) }' || {
    echo "FAIL: 1-domain pool regressed to ${fan_overhead}x of no-pool sequential" >&2
    exit 1
  }
else
  # an idle extra domain still pays stop-the-world GC sync, so on a
  # host without enough cores the speedups do not measure our
  # machinery. What a 1-core host CAN measure is scheduler overhead:
  # the 1-domain-pool-vs-no-pool ratio must stay within 5% of the
  # committed baseline's (same-core hosts only) so the work-stealing
  # dispatch cannot silently cost more than the pool it replaced.
  echo "host lacks the cores for the largest pool: speedup gate replaced by the 1-domain overhead diff"
  echo "(recorded: fan-out ${fan_speedup}x speedup, 1-domain overhead fan-out ${fan_overhead}x morsel ${morsel_overhead:-?}x)"
  if git cat-file -e HEAD:BENCH_parallel.json 2>/dev/null; then
    base_cores=$(git show HEAD:BENCH_parallel.json | awk -F': ' '/"host_cores"/ { gsub(/[ ,]/, "", $2); print $2; exit }')
    if [ -n "$base_cores" ] && [ "$base_cores" = "$par_cores" ]; then
      for idx in 1 2; do
        [ "$idx" = "1" ] && sweep=fan-out || sweep=morsel
        old=$(git show HEAD:BENCH_parallel.json |
          awk -F': ' -v want="$idx" '/"overhead_1_domain"/ { if (++n == want) { gsub(/[ ,]/, "", $2); print $2; exit } }')
        new=$(awk -F': ' -v want="$idx" '/"overhead_1_domain"/ { if (++n == want) { gsub(/[ ,]/, "", $2); print $2; exit } }' BENCH_parallel.json)
        [ -n "$old" ] && [ -n "$new" ] || continue
        if awk -v o="$old" -v n="$new" 'BEGIN { exit !(n >= o * 0.95) }'; then
          echo "1-domain overhead ($sweep): baseline ${old}x -> ${new}x (ok)"
        else
          echo "FAIL: 1-domain $sweep overhead regressed ${old}x -> ${new}x (> 5% vs committed baseline)" >&2
          exit 1
        fi
      done
    else
      echo "committed baseline is from a ${base_cores:-?}-core host: overhead diff skipped"
    fi
  fi
fi

echo "== budget arbitration gate (arbitrated hit >= static at one fixed total UB)"
# same spaced-retry policy as the other gates
bg_ok=0
for attempt in 1 2 3; do
  if [ "$attempt" != "1" ]; then
    echo "budget gate missed; cooling down before retry $attempt (noisy host)"
    sleep 20
  fi
  dune exec bench/main.exe -- budget ${BENCH_ARGS:-}
  bg_gain=$(awk -F': ' '/"hit_ratio_gain"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_budget.json)
  if [ -z "$bg_gain" ]; then
    echo "FAIL: missing hit_ratio_gain in BENCH_budget.json" >&2
    exit 1
  fi
  echo "arbitrated-vs-static hit gain: ${bg_gain}"
  if awk -v g="$bg_gain" 'BEGIN { exit !(g >= 0) }'; then
    bg_ok=1
    break
  fi
done
[ "$bg_ok" = "1" ] || {
  echo "FAIL: budget gate missed on every attempt (need hit gain >= 0 [${bg_gain}])" >&2
  exit 1
}

echo "== bench diff vs committed baselines (> ${MAX_BENCH_REGRESSION_PCT:-20}% q/s regression fails)"
# same spaced-retry policy as the gates: the diff compares absolute
# rates against a baseline captured on a calm host, so one contended
# shard sweep can trip it; a real regression trips it on every attempt
if ! tools/bench_diff.sh; then
  echo "bench diff missed; cooling down and re-running the shard bench (noisy host)"
  sleep 20
  dune exec bench/main.exe -- shard ${BENCH_ARGS:-}
  tools/bench_diff.sh || {
    echo "FAIL: fresh bench results regressed vs the committed BENCH_*.json (twice)" >&2
    exit 1
  }
fi

echo "ok: all checks passed"
