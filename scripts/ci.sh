#!/bin/sh
# CI gate: formatting, build, tests, correctness gates, a smoke run of
# the benchmark and a check against its recorded point. Run from the
# repository root.
set -eu

cd "$(dirname "$0")/.."

# 1. Formatting. dune fmt covers dune files always and OCaml sources
#    only when ocamlformat is installed; without it `dune build @fmt`
#    errors out, so gate on the binary and at least keep dune files
#    honest either way.
if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt
else
  echo "ci: ocamlformat not found; checking dune files only" >&2
  # @fmt stops at the first missing-ocamlformat error, but the dune-file
  #  rules run first, so a dirty dune file still fails before that point.
  out=$(dune build @fmt 2>&1) && : || true
  if printf '%s' "$out" | grep -q '^diff '; then
    printf '%s\n' "$out" >&2
    echo "ci: dune files are not formatted (run: dune build @fmt --auto-promote)" >&2
    exit 1
  fi
fi

# 2. Build + full test suite (tier 1).
dune build
dune runtest

# 3. Timing bench must emit parseable JSON with the expected totals.
json=$(dune exec --no-print-directory bench/main.exe -- timing --json --jobs 1)
for key in '"jobs"' '"apps"' '"totals"' '"elapsed"' '"pruned"'; do
  case $json in
  *${key}*) ;;
  *)
    echo "ci: timing --json output is missing ${key}" >&2
    exit 1
    ;;
  esac
done
# 4. Chaos-fuzz smoke: mutated corpus sources must only ever produce
#    clean runs or structured frontend/budget faults (exit 0 iff so).
dune exec --no-print-directory bin/nadroid.exe -- fuzz --seed 42 --mutants 200

# 5. Differential soundness gate: 100 generated apps, the sound-config
#    static pipeline cross-checked against the schedule explorer; any
#    dynamically witnessed NPE without a matching warning (or dropped
#    seeded pair) fails with exit 4. Fixed seed, deterministic.
dune exec --no-print-directory bin/nadroid.exe -- difftest --seed 42 --apps 100

# 6. Golden-report regression: the committed canonical reports for the
#    27-app corpus must match a fresh analysis byte-for-byte
#    (regenerate deliberately with `nadroid golden --bless`).
dune exec --no-print-directory bin/nadroid.exe -- golden --dir test/golden

# 7. Solver equivalence: (a) the worklist PTA solver must be
#    bit-identical to the reference solver on the corpus and on >= 200
#    generated apps; (b) the back end must equal the algorithms it
#    replaced (test/backend_oracle.ml: per-entry escape closures, a scan
#    of every API edge per thread, the string-label detection join):
#    equal escaping sets, structurally equal thread arrays and equal
#    warning lists in order, on the corpus, 200 generated apps,
#    adversarial apps of sizes 8-25 and wide apps of up to 4,000
#    callbacks; (c) methods are lowered on demand: an analysis lowers
#    exactly the methods points-to reaches, 500 unreachable classes
#    lower nothing more, the lowering done inside points-to is charged
#    to the lower phase, and the first frontend error does not depend
#    on class declaration order.
dune exec --no-print-directory test/test_main.exe -- test pta-equivalence
dune exec --no-print-directory test/test_main.exe -- test backend-equivalence
dune exec --no-print-directory test/test_main.exe -- test reach

# 8. Cache drift gate: a cold pass filling a fresh cache and a warm pass
#    served from it must both match the golden reports byte-for-byte.
cache_dir="_nadroid_cache/ci.$$"
rm -rf "$cache_dir"
dune exec --no-print-directory bin/nadroid.exe -- golden --dir test/golden --cache --cache-dir "$cache_dir"
dune exec --no-print-directory bin/nadroid.exe -- golden --dir test/golden --cache --cache-dir "$cache_dir"
rm -rf "$cache_dir"

# 9. Benchmark smoke: every workload of perfbench (BENCHMARK.json) for
#    one second, untraced and then traced. It builds the program and the
#    benchmark from source — so it also fails when a lib/ change stops
#    the benchmark compiling — and byte-checks every verdict against a
#    sequential, uncached reference: serve-cached's daemon replies, and
#    fleet-par's work-stealing and batch-supervised's worker-process
#    batches. Any wrong verdict exits non-zero. The traced pass matters
#    on its own: it composes the layers one public call at a time
#    (perfbench/_nbench/tracer.ml: Escape.run, Lockset.run,
#    Threadify.run, Detect.run and the filters), a path the untraced
#    pass never runs, and a benchmark check that dies there (exit 2, "no
#    result") fails the same way. It writes nothing into the tree.
python3 perfbench/run.py --workload all --seed 42 --seconds 1 >/dev/null
python3 perfbench/run.py --workload all --seed 42 --seconds 1 --trace 1 >/dev/null

# 10. Wedged-analysis gate: an adversarial app whose filter phase runs
#     ~5s (its MHB filter stalled ~1 ms per warning by fault injection;
#     deadlined runs only) must, under --deadline 2, terminate within 2x
#     the deadline with exit 0 and a partial report marked DEGRADED (the
#     marker prints with the metrics, hence --timings). A hang here
#     means in-flight cancellation regressed.
adv_src="_nadroid_cache/ci-adv.$$.mand"
adv_out="_nadroid_cache/ci-adv.$$.out"
mkdir -p _nadroid_cache
dune build bin/nadroid.exe
./_build/default/bin/nadroid.exe synth --adversarial --seed 0 --size 70 > "$adv_src"
adv_t0=$(date +%s)
NADROID_FAULTS='filter=MHB:stall' \
  ./_build/default/bin/nadroid.exe analyze "$adv_src" --deadline 2 --timings > "$adv_out"
adv_elapsed=$(( $(date +%s) - adv_t0 ))
if [ "$adv_elapsed" -gt 4 ]; then
  echo "ci: adversarial analyze took ${adv_elapsed}s under --deadline 2 (limit 4s)" >&2
  exit 1
fi
if ! grep -q 'DEGRADED' "$adv_out"; then
  echo "ci: adversarial analyze under --deadline 2 did not report DEGRADED" >&2
  exit 1
fi
rm -f "$adv_src" "$adv_out"

# 11. Source gates. (a) Monotonic clock: deadline/duration arithmetic
#     must never read the wall clock. The only gettimeofday in
#     lib/bin/bench is the one inside lib/clock that feeds Clock.wall
#     (display timestamps only). (b) One record format: Marshal appears
#     only in the versioned frame codec of lib/core/cache.ml, so no
#     module can persist or pipe records that another build would
#     unmarshal unchecked.
if grep -rn "Unix.gettimeofday" lib bin bench --include='*.ml' \
  | grep -v '^lib/clock/clock\.ml:'; then
  echo "ci: Unix.gettimeofday outside lib/clock — use Nadroid_clock.Clock" >&2
  exit 1
fi
if grep -rn 'Marshal\.' lib bin bench --include='*.ml' \
  | grep -v '^lib/core/cache\.ml:'; then
  echo "ci: Marshal outside lib/core/cache.ml — encode records with Cache.encode" >&2
  exit 1
fi

# 12. Serve daemon smoke: boot, answer a request batch byte-identically
#     to the cold CLI, drain on shutdown, exit 0.
serve_sock="/tmp/nadroid-ci.$$.sock"
serve_src="_nadroid_cache/ci-serve.$$.mand"
rm -f "$serve_sock"
dune build bin/nadroid.exe
./_build/default/bin/nadroid.exe corpus ConnectBot > "$serve_src"
./_build/default/bin/nadroid.exe serve --socket "$serve_sock" --quiet &
serve_pid=$!
cold=$(./_build/default/bin/nadroid.exe analyze --json "$serve_src")
warm=$(./_build/default/bin/nadroid.exe request --socket "$serve_sock" \
  "$serve_src" "$serve_src" "$serve_src")
if [ "$warm" != "$cold
$cold
$cold" ]; then
  echo "ci: daemon responses differ from cold analyze --json" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
./_build/default/bin/nadroid.exe request --socket "$serve_sock" --shutdown \
  > /dev/null
if ! wait "$serve_pid"; then
  echo "ci: serve daemon did not exit 0 on graceful shutdown" >&2
  exit 1
fi
rm -f "$serve_src" "$serve_sock"

# 13. Crash-survival gate: (a) a batch SIGKILLed mid-run leaves a
#     journal whose --resume rerun exits 0 with output byte-identical
#     to an uninterrupted run; (b) an app that kills its supervised
#     worker costs exactly one quarantine fault while the rest of the
#     batch still analyzes; (c) a supervised daemon keeps serving
#     byte-identically after a request crashes its worker.
crash_dir="_nadroid_cache/ci-crash.$$"
mkdir -p "$crash_dir"
for app in ToDoList Zxing Music; do
  ./_build/default/bin/nadroid.exe corpus "$app" > "$crash_dir/$app.mand"
done
crash_files="$crash_dir/ToDoList.mand $crash_dir/Zxing.mand $crash_dir/Music.mand"
crash_golden=$(./_build/default/bin/nadroid.exe analyze --json --jobs 1 $crash_files)
rc=0
NADROID_FAULTS="journal_append:2:kill" \
  ./_build/default/bin/nadroid.exe analyze --json --jobs 1 \
  --journal "$crash_dir/journal" $crash_files > /dev/null 2>&1 || rc=$?
if [ "$rc" -lt 128 ]; then
  echo "ci: injected SIGKILL did not kill the batch (rc=$rc)" >&2
  exit 1
fi
resumed=$(./_build/default/bin/nadroid.exe analyze --json --jobs 1 \
  --journal "$crash_dir/journal" --resume $crash_files)
if [ "$resumed" != "$crash_golden" ]; then
  echo "ci: resumed batch is not byte-identical to the uninterrupted run" >&2
  exit 1
fi
rc=0
sup=$(NADROID_FAULTS="worker_task=Zxing.mand:kill" \
  ./_build/default/bin/nadroid.exe analyze --json --supervise --jobs 1 \
  $crash_files 2>/dev/null) || rc=$?
if [ "$rc" -ne 4 ]; then
  echo "ci: supervised batch with a crashing app should exit 4, got $rc" >&2
  exit 1
fi
case $sup in
*quarantined*) ;;
*)
  echo "ci: supervised batch output does not name the quarantine" >&2
  exit 1
  ;;
esac
if [ "$(printf '%s' "$sup" | grep -o '"fault":' | wc -l)" -ne 1 ]; then
  echo "ci: the crashing app must cost exactly one fault entry" >&2
  exit 1
fi
crash_sock="/tmp/nadroid-ci-crash.$$.sock"
rm -f "$crash_sock"
NADROID_FAULTS="worker_task=Zxing.mand:kill" \
  ./_build/default/bin/nadroid.exe serve --socket "$crash_sock" --quiet \
  --supervise --jobs 1 &
crash_pid=$!
rc=0
./_build/default/bin/nadroid.exe request --socket "$crash_sock" \
  "$crash_dir/Zxing.mand" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 4 ]; then
  echo "ci: crashing request should answer a fault (exit 4), got $rc" >&2
  kill "$crash_pid" 2>/dev/null || true
  exit 1
fi
cold_todo=$(./_build/default/bin/nadroid.exe analyze --json "$crash_dir/ToDoList.mand")
after=$(./_build/default/bin/nadroid.exe request --socket "$crash_sock" \
  "$crash_dir/ToDoList.mand")
if [ "$after" != "$cold_todo" ]; then
  echo "ci: daemon lost byte-identity after a worker crash" >&2
  kill "$crash_pid" 2>/dev/null || true
  exit 1
fi
./_build/default/bin/nadroid.exe request --socket "$crash_sock" --shutdown \
  > /dev/null
if ! wait "$crash_pid"; then
  echo "ci: supervised daemon did not exit 0 after a worker crash" >&2
  exit 1
fi
rm -rf "$crash_dir" "$crash_sock"

# 14. Blast-radius matrix: seeded fault injection across the cache,
#     journal and worker seams; every app outcome must be baseline-
#     identical or an attributable structured fault — any escape
#     exits 4.
dune exec --no-print-directory bin/nadroid.exe -- faultfuzz \
  --seed 42 --trials 8 --apps 6 --jobs 2

# 15. Frontend and performance gate: (a) the frontend-equivalence
#     group — the table-driven lexer, the streaming parser and
#     batch-shared interning must be byte-identical to the reference
#     paths (reference lexer, token-array parser, fresh interner) on
#     200 generated apps and the corpus, the streaming parser must give
#     the token-array parser's AST or diagnostic on chaos mutants of the
#     corpus, and count_loc must agree with the naive LOC-spec scanner
#     on every corpus app; (b) the better of two corpus-seq benchmark
#     runs must reach 0.8 x the apps/s of the committed BENCH_21.json
#     point (written by
#     `python3 scripts/bench_record.py record`, never by CI). On a
#     machine with another nproc or OCaml version than the point's, the
#     check says so on stderr and skips.
dune exec --no-print-directory test/test_main.exe -- test frontend-equivalence
python3 scripts/bench_record.py check --point BENCH_21.json >/dev/null

echo "ci: ok"
