#!/usr/bin/env bash
# Reachability scan: every function of the src/ libraries must be kept by a
# non-test binary, or be listed in tools/test_only_symbols.allow with a
# reason.
#
# Method.  Build the tree without the test suite at -O0 -fno-inline, one
# section per function, and link every binary with --gc-sections.  A
# `bofl::` function defined in a src/ archive that no linked binary keeps is
# reachable only from tests.  -O0 -fno-inline matters: at -O3 a caller in the
# same translation unit can inline its callee, so the callee's own section is
# dropped although the program calls it.
#
# The non-test binaries are bofl_sim, bofl_fleet, bofl_bench, the examples
# and every bench/bench_* (the paper-figure benches count as programs).
#
# The scan fails on
#   * a test-only function that is not allowlisted, and
#   * an allowlist entry that matches no test-only function, so the list
#     cannot go stale.
#
# Usage: tools/test_only_symbols.sh [BUILD_DIR]
#   BUILD_DIR defaults to build-reachability/ at the repository root; it is
#   configured on first use and rebuilt incrementally afterwards.
#   JOBS (environment) sets the build parallelism, default 2.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-${root}/build-reachability}"
allow="${root}/tools/test_only_symbols.allow"
jobs="${JOBS:-2}"

scan_flags="-O0 -fno-inline -ffunction-sections -fdata-sections"
cmake -S "${root}" -B "${build}" \
  -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="${scan_flags}" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
  -DBOFL_BUILD_TESTS=OFF -DBOFL_BUILD_BENCHMARKS=ON \
  -DBOFL_BUILD_EXAMPLES=ON > /dev/null
cmake --build "${build}" -j "${jobs}" > /dev/null

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

# Defined functions of namespace bofl, by mangled name.  The mangled prefix
# _ZN[cv/ref qualifiers]4bofl selects functions whose own qualified name is
# in bofl::, which leaves out std template instantiations that merely
# mention a bofl type (_ZNSt..., _ZSt...) and function-local entities such
# as lambdas (_ZZN...), which live and die with their enclosing function.
bofl_functions() {
  nm --defined-only "$@" 2>/dev/null \
    | awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZN[rVKRO]*4bofl/ { print $3 }' \
    | sort -u
}

mapfile -t archives < <(find "${build}/src" -name 'libbofl_*.a' | sort)
if (( ${#archives[@]} == 0 )); then
  echo "no src/ archives found under ${build}/src" >&2
  exit 2
fi
bofl_functions "${archives[@]}" > "${work}/library"

mapfile -t programs < <(
  {
    echo "${build}/tools/bofl_sim"
    echo "${build}/tools/bofl_fleet"
    echo "${build}/bench/e2e/bofl_bench"
    find "${build}/examples" "${build}/bench" -maxdepth 1 -type f -executable
  } | sort -u)
for p in "${programs[@]}"; do
  [[ -x "${p}" ]] || { echo "missing program ${p}" >&2; exit 2; }
done
bofl_functions "${programs[@]}" > "${work}/kept"

# Test-only functions, demangled; constructor and destructor variants
# (C1/C2, D0/D1/D2) collapse into one name.
comm -23 "${work}/library" "${work}/kept" | c++filt | sort -u \
  > "${work}/test_only"

# Allowlist: one `SYMBOL  # reason` per line, SYMBOL the demangled name
# exactly as this scan prints it.  Blank lines and lines starting with '#'
# are comments.
: > "${work}/allowed"
status=0
while IFS= read -r line; do
  [[ -z "${line}" || "${line}" == \#* ]] && continue
  symbol="${line%%  # *}"
  reason="${line#*  # }"
  if [[ "${symbol}" == "${line}" || -z "${reason// /}" ]]; then
    echo "allowlist entry without a reason: ${line}" >&2
    status=1
    continue
  fi
  printf '%s\n' "${symbol}" >> "${work}/allowed"
done < "${allow}"
sort -u -o "${work}/allowed" "${work}/allowed"

unlisted="$(comm -23 "${work}/test_only" "${work}/allowed")"
stale="$(comm -13 "${work}/test_only" "${work}/allowed")"

echo "bofl:: functions in src/ archives: $(wc -l < "${work}/library")"
echo "kept by ${#programs[@]} non-test programs:" \
  "$(comm -12 "${work}/library" "${work}/kept" | wc -l)"
echo "test-only (allowlisted): $(comm -12 "${work}/test_only" "${work}/allowed" | wc -l)"

if [[ -n "${unlisted}" ]]; then
  echo
  echo "Functions only tests reach (delete them, or allowlist them with a reason" \
       "in tools/test_only_symbols.allow):"
  sed 's/^/  /' <<< "${unlisted}"
  status=1
fi
if [[ -n "${stale}" ]]; then
  echo
  echo "Allowlist entries that match no test-only function (remove them):"
  sed 's/^/  /' <<< "${stale}"
  status=1
fi
exit "${status}"
