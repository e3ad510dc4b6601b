# Sourced by tests/ci.sh and tests/run_sanitized.sh.
#
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
