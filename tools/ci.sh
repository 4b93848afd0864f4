#!/usr/bin/env bash
# Tier-1 verification from a pristine tree: configure, build, and run the
# full test suite (plus an explicit pass over the fault-labelled suite) in a
# scratch build directory, so a stale incremental `build/` — now untracked —
# can never hide breakage.
#
# Usage: tools/ci.sh [build-dir]     (default: build-ci, wiped every run)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-ci}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== MCR-DL CI: clean configure + build + ctest =="
echo "   repo:  ${repo_root}"
echo "   build: ${build_dir} (removed first)"

# Single-thread lint: one ClusterContext is one thread, so src/ needs no
# threads, thread-locals, condition variables, atomics or locks. The only
# process-global state is the logger's output lock and level.
echo "== lint: no threading primitives in src/ =="
if grep -rnE 'std::thread|thread_local|condition_variable|std::atomic|mutex' \
    "${repo_root}/src" \
    | grep -vE "^${repo_root}/src/common/logging\.(h|cc):"; then
  echo "lint FAILED: threading primitive in src/ (only src/common/logging.{h,cc} may lock)" >&2
  exit 1
fi

rm -rf "${build_dir}"
# Warnings fail the build here, so a new one cannot slip in unnoticed.
cmake -B "${build_dir}" -S "${repo_root}" -DMCRDL_WERROR=ON
cmake --build "${build_dir}" -j "${jobs}"

cd "${build_dir}"
ctest --output-on-failure -j "${jobs}"
# The fault/chaos suite guards the failover invariants (DESIGN.md §7); run
# it by label too so a labelling regression is caught even if test names move.
ctest --output-on-failure -j "${jobs}" -L fault
# Same for the observability suite (DESIGN.md §8): metrics, strict JSON, and
# the golden-trace byte-identity that keeps instrumentation passive.
ctest --output-on-failure -j "${jobs}" -L obs
# And the tuning suite (DESIGN.md §9): static-table semantics plus the
# online adaptive tuner's policy, quarantine, and determinism contracts.
ctest --output-on-failure -j "${jobs}" -L tune
# And the serving suite (DESIGN.md §10): admission, placement, contention,
# and deterministic trace replay.
ctest --output-on-failure -j "${jobs}" -L sched
# And the composite-collective suite (DESIGN.md §15): algorithm-string
# parsing, hier/rsag correctness against flat allreduce, the overlap
# scheduler's interleaving, and elastic shrink/rejoin across in-flight
# composites.
ctest --output-on-failure -j "${jobs}" -L coll
# And the steady-state allocation budget (DESIGN.md §14): heap allocations
# per dispatched op, counted by a replaced global operator new. The ASan+UBSan
# leg below runs it again as part of the full suite.
ctest --output-on-failure -j "${jobs}" -L alloc

# The host-speed benchmark (perfbench/) is a separate CMake package that
# builds src/ on its own, so a src/ change can break it without breaking the
# tree above. Build it and run its self-tests, in CI's scratch dir.
echo "== perfbench: build + self-test =="
CARGO_TARGET_DIR="${build_dir}/perfbench-build" python3 "${repo_root}/perfbench/run.py" --self-test

# perfbench correctness smoke: each workload for one second at two seeds,
# plus a traced dispatch run, whose span probes are pipeline hooks. Every
# check the benchmark makes (routing anchors, cycles against a replay on a
# rebuilt runtime, payload values, step identity, serve replay identity)
# must pass: the result line must read "correct": true and "failed": 0.
echo "== perfbench: correctness smoke =="
perfbench_check() {
  local out
  if ! out="$(CARGO_TARGET_DIR="${build_dir}/perfbench-build" \
      python3 "${repo_root}/perfbench/run.py" "$@")"; then
    echo "perfbench smoke FAILED ($*): run.py exited non-zero" >&2
    exit 1
  fi
  local result="${out##*$'\n'}"
  if ! python3 -c 'import json, sys; r = json.loads(sys.argv[1]);
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "${result}"; then
    echo "perfbench smoke FAILED ($*): ${out}" >&2
    exit 1
  fi
  echo "   ok: $*"
}
for seed in 2 1000003; do
  for workload in moe256 dispatch payload serve; do
    perfbench_check --workload "${workload}" --seed "${seed}" --seconds 1
  done
done
perfbench_check --workload dispatch --seed 2 --seconds 1 --trace 1

# Chaos-differential smoke: kill rank 3 at t=2500us mid-run and require a
# clean elastic recovery — exit 0 (planned casualty only, survivors agree)
# AND at least one op actually quiesced and replayed on the shrunk
# communicator. mv2-gdr is host-synchronous, so the replay is observable in
# `recovered ops` (stream backends surface cancels at synchronize instead).
echo "== chaos smoke: rank_loss recovery =="
chaos_out="$("${build_dir}/tools/mcrdl_chaos" --scenario=rank_loss --rank=3 --at=2500 \
    --watchdog=100000 --backends=mv2-gdr --size=64k)"
echo "${chaos_out}"
recovered="$(sed -n 's/.*recovered ops *: *//p' <<<"${chaos_out}")"
if [ -z "${recovered}" ] || [ "${recovered}" -le 0 ]; then
  echo "chaos smoke FAILED: expected recovered ops > 0, got '${recovered:-none}'" >&2
  exit 1
fi

# Rejoin smoke (DESIGN.md §13): the same casualty comes back. The scripted
# loss must still quiesce and replay (recovered ops > 0, same mv2-gdr recipe
# as above), the grow phase must fire (ranks rejoined > 0), and the post-
# recovery world must be back to full size — the tool's differential check
# exits non-zero otherwise.
echo "== chaos smoke: rank_rejoin grow-back =="
bench_dir="${build_dir}/bench-export"
mkdir -p "${bench_dir}"
rejoin_out="$(timeout 300 "${build_dir}/tools/mcrdl_chaos" --scenario=rejoin --rank=3 \
    --at=2500 --watchdog=100000 --backends=mv2-gdr --size=64k)"
echo "${rejoin_out}"
rejoin_recovered="$(sed -n 's/.*recovered ops *: *//p' <<<"${rejoin_out}")"
rejoined="$(sed -n 's/.*ranks rejoined *: *//p' <<<"${rejoin_out}")"
if [ -z "${rejoin_recovered}" ] || [ "${rejoin_recovered}" -le 0 ]; then
  echo "rejoin smoke FAILED: expected recovered ops > 0, got '${rejoin_recovered:-none}'" >&2
  exit 1
fi
if [ -z "${rejoined}" ] || [ "${rejoined}" -le 0 ]; then
  echo "rejoin smoke FAILED: expected ranks rejoined > 0, got '${rejoined:-none}'" >&2
  exit 1
fi

# Checkpoint round-trip smoke (DESIGN.md §13): save the runtime state after
# the rejoin run, restore it into a fresh no-op run, and save again — the two
# files must be byte-identical (save -> restore -> save is the format's
# determinism contract; restore counters are deliberately not serialized).
echo "== checkpoint smoke: save/restore/save byte-identity =="
timeout 300 "${build_dir}/tools/mcrdl_chaos" --scenario=rejoin --rank=3 --at=2500 \
    --watchdog=100000 --backends=mv2-gdr --size=64k \
    --checkpoint-out="${bench_dir}/ckpt_a.txt" >/dev/null
timeout 300 "${build_dir}/tools/mcrdl_chaos" --scenario=none --iterations=0 \
    --checkpoint-in="${bench_dir}/ckpt_a.txt" \
    --checkpoint-out="${bench_dir}/ckpt_b.txt" >/dev/null
if ! cmp -s "${bench_dir}/ckpt_a.txt" "${bench_dir}/ckpt_b.txt"; then
  echo "checkpoint smoke FAILED: save -> restore -> save is not byte-identical" >&2
  diff "${bench_dir}/ckpt_a.txt" "${bench_dir}/ckpt_b.txt" >&2 || true
  exit 1
fi

# Perf-trajectory smoke: export the Figure 2 microbenchmark on the quick
# grid and validate the BENCH file — the strict parser must accept it and at
# least one series must sweep monotonically increasing message sizes.
echo "== bench_export smoke: fig2 perf trajectory =="
bench_dir="${build_dir}/bench-export"
mkdir -p "${bench_dir}"
"${build_dir}/tools/bench_export" --experiment fig2 --quick --out "${bench_dir}"
"${build_dir}/tools/bench_export" --check "${bench_dir}/BENCH_fig2.json"

# Adaptation smoke: degrade the statically-best backend mid-run and require
# the online tuner to re-route (switches > 0) and the post-adaptation step
# time to land within 10% of the best undegraded alternative — the tool's
# --assert-adapt exit code enforces both (DESIGN.md §9).
echo "== adaptation smoke: mcrdl_tune --online =="
adapt_out="$("${build_dir}/tools/mcrdl_tune" --online=true --quick=true --assert-adapt=true)"
echo "${adapt_out}"
switches="$(sed -n 's/^switches *: *//p' <<<"${adapt_out}")"
if [ -z "${switches}" ] || [ "${switches}" -le 0 ]; then
  echo "adaptation smoke FAILED: expected switches > 0, got '${switches:-none}'" >&2
  exit 1
fi

# Serving smoke: replay a seeded multi-tenant trace twice and require a
# byte-identical report (deterministic replay), a sane latency distribution
# (p99 >= p50 > 0), and a deadlock-free admission queue (DESIGN.md §10).
echo "== serve smoke: mcrdl_serve deterministic replay =="
serve_out="$("${build_dir}/tools/mcrdl_serve" --jobs 300 --seed 7 --nodes 8)"
serve_out2="$("${build_dir}/tools/mcrdl_serve" --jobs 300 --seed 7 --nodes 8)"
echo "${serve_out}" | tail -n 10
if [ "${serve_out}" != "${serve_out2}" ]; then
  echo "serve smoke FAILED: two replays of the same seed differ" >&2
  diff <(echo "${serve_out}") <(echo "${serve_out2}") >&2 || true
  exit 1
fi
p50="$(sed -n 's/^p50 *: *\([0-9.]*\).*/\1/p' <<<"${serve_out}")"
p99="$(sed -n 's/^p99 *: *\([0-9.]*\).*/\1/p' <<<"${serve_out}")"
deadlocks="$(sed -n 's/^deadlocks *: *//p' <<<"${serve_out}")"
if [ -z "${p50}" ] || [ -z "${p99}" ] || \
   ! awk -v p50="${p50}" -v p99="${p99}" 'BEGIN { exit !(p50 > 0 && p99 >= p50) }'; then
  echo "serve smoke FAILED: expected p99 >= p50 > 0, got p50='${p50}' p99='${p99}'" >&2
  exit 1
fi
if [ -z "${deadlocks}" ] || [ "${deadlocks}" -ne 0 ]; then
  echo "serve smoke FAILED: expected 0 deadlocks, got '${deadlocks:-none}'" >&2
  exit 1
fi

# Serve perf trajectory: the clean-vs-chaos percentile export must pass the
# strict schema check like every other BENCH file.
echo "== bench_export smoke: serve perf trajectory =="
"${build_dir}/tools/bench_export" --experiment serve --quick --out "${bench_dir}"
"${build_dir}/tools/bench_export" --check "${bench_dir}/BENCH_serve.json"

# Resilience perf trajectory (DESIGN.md §13): shrink-only vs shrink-then-
# rejoin recovery latency and post-recovery throughput, exported on the quick
# grid and validated by the strict schema check like every other BENCH file.
echo "== bench_export smoke: resilience perf trajectory =="
timeout 600 "${build_dir}/tools/bench_export" --experiment resilience --quick --out "${bench_dir}"
"${build_dir}/tools/bench_export" --check "${bench_dir}/BENCH_resilience.json"

# Hot-path perf trajectory (DESIGN.md §14): export the dispatch-throughput
# experiment on the quick grid and validate it — the schema check requires a
# populated speedup series and fails if the bucketed/fast ratio ever drops
# below 1.5x (the CI gate is lenient so a loaded runner cannot flake it,
# while still catching bucketing that stopped amortising dispatch cost).
echo "== bench_export smoke: hotpath perf trajectory =="
timeout 600 "${build_dir}/tools/bench_export" --experiment hotpath --quick --out "${bench_dir}"
"${build_dir}/tools/bench_export" --check "${bench_dir}/BENCH_hotpath.json"

# Composite-collective perf trajectory (DESIGN.md §15): export the hier
# experiment on the quick grid and validate it — the schema check enforces
# the two orderings that make the subsystem worth having (hierarchical
# allreduce beats flat at every swept node count >= 2 for the largest
# message; hier+overlap beats the identical hier plan on the 3D-CNN model).
echo "== bench_export smoke: hier perf trajectory =="
timeout 600 "${build_dir}/tools/bench_export" --experiment hier --quick --out "${bench_dir}"
"${build_dir}/tools/bench_export" --check "${bench_dir}/BENCH_hier.json"

# Virtual-time gate: every number in these exports derives from virtual
# time, so a full-grid export must reproduce the committed BENCH file byte
# for byte (EXPERIMENTS.md: the committed files are bench_export's output).
# That is every registered experiment except the wall-clock hotpath. A
# change that moves virtual time on purpose regenerates the files with
# `bench_export --experiment <name>` and says why.
echo "== virtual-time gate: full exports vs committed BENCH files =="
full_dir="${bench_dir}/full"
mkdir -p "${full_dir}"
for experiment in fig1 fig2 fig7 fig8 fig9 fig10 fig11 fig12 table2 ablations \
    adapt serve resilience hier; do
  timeout 600 "${build_dir}/tools/bench_export" --experiment "${experiment}" --out "${full_dir}"
  if ! cmp -s "${repo_root}/BENCH_${experiment}.json" "${full_dir}/BENCH_${experiment}.json"; then
    echo "virtual-time gate FAILED: BENCH_${experiment}.json differs from a fresh export" >&2
    diff "${repo_root}/BENCH_${experiment}.json" "${full_dir}/BENCH_${experiment}.json" >&2 || true
    exit 1
  fi
done

# Memory- and UB-check the whole suite: rebuild everything with
# -fsanitize=address,undefined and run the full ctest. Leak detection stays
# on, so a Work pinned by its own completion callback on a deadlock, abort or
# rank-loss path fails the run (src/common/completion.h), as does any UBSan
# report.
echo "== asan+ubsan: full suite under -fsanitize=address,undefined =="
asan_dir="${build_dir}-asan"
rm -rf "${asan_dir}"
cmake -B "${asan_dir}" -S "${repo_root}" -DMCRDL_SANITIZE=address,undefined
cmake --build "${asan_dir}" -j "${jobs}"
( cd "${asan_dir}" && ASAN_OPTIONS=detect_leaks=1 \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --output-on-failure -j "${jobs}" )
# The fiber switch hands each fiber's ASan fake stack over through the
# sanitizer fiber hooks (src/sim/serial_baton.cc). Stack-use-after-return
# detection puts every instrumented frame on a fake stack, so run the sim
# suite again with it on.
( cd "${asan_dir}" && ASAN_OPTIONS=detect_leaks=1:detect_stack_use_after_return=1 \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --output-on-failure -j "${jobs}" -L sim )

# Race-check what can run concurrently: separate ClusterContexts on separate
# host threads (GoldenTrace.TwoContextsOnTwoThreadsMatchGolden runs the full
# workload on two threads at once; any state the library shares between
# contexts is a reported race). The sim suite rides along because the fiber
# switch reports itself through TSan's fiber API (src/sim/serial_baton.cc);
# a race there fails the test binary's exit code, which fails ctest.
echo "== tsan: two contexts on two threads, plus the sim suite =="
tsan_dir="${build_dir}-tsan"
rm -rf "${tsan_dir}"
cmake -B "${tsan_dir}" -S "${repo_root}" -DMCRDL_SANITIZE=thread
cmake --build "${tsan_dir}" -j "${jobs}" --target \
    sim_scheduler_test sim_serial_baton_test sim_device_test sim_stress_test \
    sim_stack_pool_test core_golden_trace_test
( cd "${tsan_dir}" && ctest --output-on-failure -j "${jobs}" -L sim )
( cd "${tsan_dir}" && ctest --output-on-failure \
    -R '^GoldenTrace\.TwoContextsOnTwoThreadsMatchGolden$' )

echo "== CI passed =="
