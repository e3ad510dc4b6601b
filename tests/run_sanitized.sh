#!/usr/bin/env bash
# CI-style sanitizer sweep: configure, build and run the test suite under
# ThreadSanitizer and then AddressSanitizer (+UBSan), each in its own
# build tree so sanitized objects never mix with the regular build.
#
# Usage:
#   tests/run_sanitized.sh            # both sanitizers, full suite
#   tests/run_sanitized.sh thread     # TSan only
#   tests/run_sanitized.sh address -R 'service|thread_pool'
#
# Extra arguments after the sanitizer name are passed through to ctest
# (e.g. -R <regex> to restrict which tests run). With such arguments only
# the tests they select are built; with none, the whole tree is.

set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"

# qp_generator_for <build_dir> sets QP_GENERATOR to the generator
# arguments for configuring that tree. A new tree uses Ninja when it is
# installed: `cmake --build --target a b c` then builds the targets in
# parallel, where the Makefile generator's top level (.NOTPARALLEL)
# builds them one at a time. An existing tree keeps its generator; a
# Makefile tree gets a one-line note when Ninja could replace it.
qp_generator_for() {
  QP_GENERATOR=()
  command -v ninja >/dev/null || return 0
  if [[ ! -f "$1/CMakeCache.txt" ]]; then
    QP_GENERATOR=(-G Ninja)
  elif grep -qx 'CMAKE_GENERATOR:INTERNAL=Unix Makefiles' "$1/CMakeCache.txt"; then
    echo "note: $1 is a Makefile tree and builds selected targets one at a time; remove it to rebuild with Ninja"
  fi
}

sanitizers=()
case "${1:-all}" in
  thread | address) sanitizers=("$1"); shift ;;
  all) sanitizers=(thread address); [[ $# -gt 0 ]] && shift ;;
  *) sanitizers=(thread address) ;;
esac
CTEST_ARGS=("$@")

JOBS="$(nproc 2>/dev/null || echo 2)"

for sanitizer in "${sanitizers[@]}"; do
  build_dir="$ROOT/build-$sanitizer"
  echo "==== [$sanitizer] configuring $build_dir ===="
  qp_generator_for "$build_dir"
  cmake -B "$build_dir" -S "$ROOT" "${QP_GENERATOR[@]}" \
    -DQP_SANITIZE="$sanitizer" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  echo "==== [$sanitizer] building ===="
  if [[ ${#CTEST_ARGS[@]} -gt 0 ]]; then
    # qp_add_test names each test after its executable target, so the
    # tests ctest selects are exactly the targets to build.
    mapfile -t targets < <(cd "$build_dir" && ctest -N "${CTEST_ARGS[@]}" |
      sed -n 's/^ *Test *#[0-9]*: //p')
    if [[ ${#targets[@]} -eq 0 ]]; then
      echo "no tests match: ${CTEST_ARGS[*]}" >&2
      exit 1
    fi
    cmake --build "$build_dir" -j "$JOBS" --target "${targets[@]}"
  else
    cmake --build "$build_dir" -j "$JOBS"
  fi
  echo "==== [$sanitizer] running ctest ===="
  if [[ "$sanitizer" == thread ]]; then
    # halt_on_error makes a race fail the test instead of just logging.
    export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
  else
    export ASAN_OPTIONS="detect_leaks=1 strict_string_checks=1"
    export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"
  fi
  (cd "$build_dir" && ctest --output-on-failure -j "$JOBS" "${CTEST_ARGS[@]}")
  echo "==== [$sanitizer] PASS ===="
done

echo "All sanitizer runs passed."
