#!/usr/bin/env bash
# Tier-1 verify + benchmark smoke run, mirroring the CI matrix locally.
#
# Usage: ./ci.sh [build-dir]           build + tests + bench smoke +
#                                      BENCH_ci.json (the CI artifact) +
#                                      perfbench correctness smoke
#        ./ci.sh --asan [build-dir]    Debug ASan/UBSan build + full tests
#        ./ci.sh --tsan [build-dir]    Debug TSan build + the parallel
#                                      executor tests (plan/exec/thread_pool)
#        ./ci.sh --analyze [build-dir] static analysis: engine lint (always),
#                                      clang -Werror=thread-safety build and
#                                      clang-tidy (each skipped with a notice
#                                      when the tool is not installed; CI's
#                                      analyze job has both)
set -euo pipefail

MODE=default
case "${1:-}" in
  --asan) MODE=asan; shift ;;
  --tsan) MODE=tsan; shift ;;
  --analyze) MODE=analyze; shift ;;
esac

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [ "$MODE" = "analyze" ]; then
  BUILD_DIR="${1:-build-analyze}"

  echo "== engine lint (tools/lint_engine.py) =="
  python3 tools/lint_engine.py --self-test
  python3 tools/lint_engine.py src

  if command -v clang++ >/dev/null 2>&1; then
    echo "== clang thread-safety analysis (-Werror=thread-safety) =="
    # Bench + examples stay ON: the annotations must hold for every caller
    # of the concurrency layer, not just the library.
    cmake -B "$BUILD_DIR" -S . \
      -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
      -DCCDB_WERROR_THREAD_SAFETY=ON
    cmake --build "$BUILD_DIR" -j "$JOBS"
  else
    echo "NOTICE: clang++ not installed; skipping the thread-safety build" \
         "(the CI analyze job runs it)"
  fi

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy (.clang-tidy, WarningsAsErrors) =="
    if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
      cmake -B "$BUILD_DIR" -S . >/dev/null
    fi
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -p "$BUILD_DIR" -quiet "src/.*\.cc$"
    else
      find src -name '*.cc' -print0 | \
        xargs -0 -P "$JOBS" -n 8 clang-tidy -p "$BUILD_DIR" --quiet
    fi
  else
    echo "NOTICE: clang-tidy not installed; skipping" \
         "(the CI analyze job runs it)"
  fi

  echo "OK (analyze)"
  exit 0
fi

if [ "$MODE" = "asan" ]; then
  BUILD_DIR="${1:-build-asan}"
  echo "== configure (ASan/UBSan) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-O1 -g -fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCCDB_BUILD_BENCH=OFF -DCCDB_BUILD_EXAMPLES=OFF
  echo "== build =="
  cmake --build "$BUILD_DIR" -j "$JOBS"
  echo "== tests under ASan/UBSan =="
  # sim_integration_test asserts Fig-10 miss-count inequalities that depend
  # on real heap addresses; ASan's redzoned allocator shifts the layout and
  # the strict inequalities are not guaranteed there (covered by the
  # regular-build tier-1 run instead).
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -E 'sim_integration_test'
  echo "OK (asan)"
  exit 0
fi

if [ "$MODE" = "tsan" ]; then
  BUILD_DIR="${1:-build-tsan}"
  echo "== configure (TSan) =="
  # Bench stays ON here: the concurrent_serving smoke run below is the TSan
  # pass over the whole serving stack (server threads + plan cache + morsel
  # yielding on the shared pool).
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-O1 -g -fsanitize=thread" \
    -DCCDB_BUILD_BENCH=ON -DCCDB_BUILD_EXAMPLES=OFF
  echo "== build =="
  cmake --build "$BUILD_DIR" -j "$JOBS"
  echo "== parallel executor tests under TSan =="
  # plan_test, rich_algebra_test and expr_test run the operators (including
  # the parallel multi-key aggregate, outer/anti/semi join, and
  # OR-expression union paths) at parallelism {1,2,8}; exec_test's
  # JoinOpTest.MultiChunkParallelJoinsAreByteIdentical fills JoinOp's kept
  # match buffers from pool workers chunk after chunk at parallelism
  # {1,2,8}, over three build shapes (an unfiltered base table, a filtered
  # base table whose build heads are base OIDs, and a two-list join result
  # taken through positions); join_test's
  # JoinTasksTest.ChunkedParallelProbesBuildEachClusterOnce builds hash
  # table slices inside pool tasks, chunk after chunk, at {1,2,8} workers;
  # stats_test runs the
  # reordered join chains at parallelism {1,2,8} and the shared lazy stats
  # cache; thread_pool_test hammers the pool itself; serve_test and
  # concurrent_exec_test drive the serving front end, the stats-vs-append
  # race, and two concurrent plans on one pool. TSan is the real reviewer
  # for all of them.
  # Anchored alternation: unanchored, 'exec_test' would also pull in
  # concurrent_exec_test (running it twice) and any future *_exec_test into
  # this filter silently.
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '^(plan_test|rich_algebra_test|expr_test|exec_test|join_test|thread_pool_test|stats_test|serve_test|concurrent_exec_test|shared_scan_test|exchange_test|mem_arena_test)$'
  echo "== concurrent serving smoke under TSan =="
  "$BUILD_DIR/concurrent_serving" --smoke
  echo "== shared scan smoke under TSan =="
  # K client threads on one cooperative table cursor: the TSan pass over
  # the shared-scan registry (drive/fan-out/detach under concurrency).
  "$BUILD_DIR/shared_scan" --smoke
  echo "== exchange smoke under TSan =="
  # Partitioned join+agg through the exchange operators: the TSan pass over
  # the bounded channels, the merge collector, and pump/worker lifecycles.
  "$BUILD_DIR/exchange" --smoke
  echo "== tlb_pages smoke under TSan =="
  # Arena allocate/advise/free cycles (mmap registry under the arena mutex)
  # exercised from the huge-page A/B kernels.
  "$BUILD_DIR/tlb_pages" --smoke
  echo "OK (tsan)"
  exit 0
fi

BUILD_DIR="${1:-build}"

echo "== configure =="
cmake -B "$BUILD_DIR" -S .

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== tier-1 tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== sim_integration_test, one process per case =="
# The simulator sees real heap addresses, so a case that only passes
# through placement left behind by earlier cases (the arena's coloring
# counter, heap state) fails here instead of passing by luck.
suite=""
"$BUILD_DIR/sim_integration_test" --gtest_list_tests | while IFS= read -r line; do
  case "$line" in
    " "*) "$BUILD_DIR/sim_integration_test" --gtest_brief=1 \
            --gtest_filter="$suite${line#  }" ;;
    *) suite="$line" ;;
  esac
done

echo "== bench smoke =="
# fig9 sweeps radix-cluster over cardinalities; the default (non --full)
# scale is a reduced grid that keeps CI fast while still touching the
# cluster kernels and the cost model.
"$BUILD_DIR/fig9_radix_cluster" --profile=x86
# fig10/fig11 time and simulate the join phase of JoinOp's join driver
# (algo/join.h): its radix-join and partitioned hash-join tasks over
# prepared clusters; each CCDB_CHECKs the join's output size.
"$BUILD_DIR/fig10_radix_join" --profile=x86
"$BUILD_DIR/fig11_phash_join" --profile=x86
# ablation_aggregation times GroupAggTable::AddColumns (the one hash
# grouping table: GroupByAggOp's, and per cluster RadixGroupSum's) beside
# sort and radix grouping, and CCDB_CHECKs that its group count and total
# sum equal SortGroupSum's.
"$BUILD_DIR/ablation_aggregation"
# ablation_prefetch CCDB_CHECKs that its prefetching B = 0 hash join (the
# table's probe step with a bucket prefetch in front) returns exactly
# JoinRelations(JoinShape{})'s output at every prefetch distance, and that
# ProbeSlots over a 2 MiB head array writes the same lpos/rpos with its
# look-ahead (16) as without it (0).
"$BUILD_DIR/ablation_prefetch"
# ablation_index_selects simulates point lookups through the B-trees, the
# T-trees and the hash table's probe step, and CCDB_CHECKs that the filter
# walk (SelectOp over a one-column table) and the B-tree return the same
# row count for each range select.
"$BUILD_DIR/ablation_index_selects"
# micro_storage's Select benchmarks run the filter walk (SelectOp and
# EvalFilterPositions) over dense and sparse candidate lists; its
# AppendRows benchmark runs the column-wise ingest append. The binary
# links Google Benchmark and is not built without it.
if [ -x "$BUILD_DIR/micro_storage" ]; then
  "$BUILD_DIR/micro_storage" --benchmark_filter='Select|AppendRows' \
    --benchmark_min_time=0.01
else
  echo "NOTICE: micro_storage not built (no Google Benchmark);" \
       "skipping its Select and AppendRows benchmarks"
fi
# micro_join's Group benchmarks run GroupAggTable::AddColumns in both
# forms (dense keys: the direct form, indexed by the key's offset in the
# keys' bounding box; keys times an odd constant: the hashed form) at 16 to
# 64k groups and on two keys of 50 x 10 groups, and SortGroupSum; its
# ProbeSlots benchmarks run the positional probe loop over probe keys read
# in place, writing the two position lists: over a 2 MiB head array, where
# the loop looks ahead, and through a candidate list over a 4 KB one, where
# it does not.
if [ -x "$BUILD_DIR/micro_join" ]; then
  "$BUILD_DIR/micro_join" --benchmark_filter='Group|ProbeSlots' \
    --benchmark_min_time=0.01
else
  echo "NOTICE: micro_join not built (no Google Benchmark);" \
       "skipping its Group and ProbeSlots benchmarks"
fi

echo "== bench artifact (BENCH_ci.json) =="
# Parallel-join/group-by micro numbers + radix-cluster smoke, written as
# JSON so CI can upload the perf trajectory per commit.
"$BUILD_DIR/parallel_exec" --json="$BUILD_DIR/BENCH_ci.json"
# Serving-layer numbers (per-class p50/p99, qps, cache hit rate, fairness
# A/B) merged into the same artifact; the run itself asserts that fair
# dispatch beats FIFO on point-query tail latency.
"$BUILD_DIR/concurrent_serving" --json-merge="$BUILD_DIR/BENCH_ci.json"
# Exchange A/B (local vs forced repartition vs forced broadcast vs the
# cost-modeled auto choice on a join+agg workload) merged too; the run
# asserts every exchanged plan is byte-identical to the local one and that
# auto's strategy matches the transfer-byte arithmetic.
"$BUILD_DIR/exchange" --json-merge="$BUILD_DIR/BENCH_ci.json"
# Huge-page vs base-page A/B (scan / gather / radix-cluster / join build on
# arena mappings) merged too. The section records page_size, thp_available
# and the huge-page bytes the kernel actually granted; when nothing was
# granted (THP off, locked-down kernel) it is marked
# tlb_pages_meaningful=false instead of reporting a fake speedup.
"$BUILD_DIR/tlb_pages" --json-merge="$BUILD_DIR/BENCH_ci.json"

echo "== examples smoke =="
# Every example self-checks with CCDB_CHECK: a clean exit is the oracle
# passing.
for example in quickstart mil_pipeline olap_item_table cache_explorer \
               join_tuning; do
  echo "-- $example"
  "$BUILD_DIR/$example" > /dev/null
done

echo "== perfbench smoke =="
# The end-to-end benchmark builds its own copy of src/ (perfbench/run.py,
# into $CARGO_TARGET_DIR/perfbench or .bench_build/perfbench) and checks
# every answer against a reference computed from the generated rows. The
# step fails unless the JSON result line (the last line) says
# "correct": true.
for workload in star_join ingest; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 \
    --trace 0 | tail -n 1 | python3 -c '
import json, sys
result = json.load(sys.stdin)
if result.get("correct") is not True:
    sys.exit("perfbench %s: not correct: %s" % (sys.argv[1], result))
' "$workload"
done

echo "== shared scan A/B =="
# Shared-scan A/B (K same-table clients, cooperative cursor vs independent
# scans) merged into BENCH_ci.json too; the run asserts sharing is >= 1.3x
# better on qps or p99 — a work-elimination win, so it holds even at
# hardware_concurrency=1. It runs last so that a failure here still leaves
# every step above checked; the script exits non-zero all the same.
"$BUILD_DIR/shared_scan" --json-merge="$BUILD_DIR/BENCH_ci.json"
echo "OK"
