#!/usr/bin/env bash
# unreached_functions.sh — list the library functions that no shipped binary
# reaches, as the linker sees it.
#
# Builds the seven shipped binaries (scenario_runner, micro_substrates and the
# five tools/ binaries) at -O0 with one section per function and links them
# with --gc-sections, so nothing is inlined away and each binary keeps exactly
# the functions reachable from main() and its static initialisers.  Every
# external function (`nm` type T) defined in an sss_* library that none of the
# seven binaries keeps is printed, demangled, one per line, sorted.
#
#   .github/scripts/unreached_functions.sh [BUILD_DIR]
#   .github/scripts/unreached_functions.sh --check ALLOWLIST [BUILD_DIR]
#
# BUILD_DIR defaults to build-unreached (configured here; reused if present).
# --check compares the list against ALLOWLIST, whose lines are
#   <demangled function>  # <one-line reason>
# (blank and #-only lines are ignored).  It fails when a function is
# unreached but not allowlisted, when an allowlisted function is reached or
# gone, or when an entry has no reason.  The list can therefore only shrink.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
allow=""
if [[ "${1:-}" == "--check" ]]; then
  allow=${2:?--check needs an allowlist file}
  shift 2
fi
build=${1:-build-unreached}

binaries=(scenario_runner micro_substrates calibrate decide_server decide_load
          sweep_orchestrator bench_baseline)

cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG=-O0 -DCMAKE_CXX_FLAGS=-ffunction-sections \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
cmake --build "$build" -j "$(nproc)" --target "${binaries[@]}" >/dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Every strong function the libraries define, by mangled name.
nm --defined-only "$build"/libsss_*.a 2>/dev/null |
  awk '$2 == "T" { print $3 }' | sort -u >"$tmp/defined"

# Every function some binary kept.
for b in "${binaries[@]}"; do
  exe=$(find "$build" -type f -name "$b" -perm -u+x | head -n 1)
  [[ -n "$exe" ]] || { echo "unreached_functions: $b was not built" >&2; exit 2; }
  nm --defined-only "$exe" | awk '$2 ~ /^[Tt]$/ { print $3 }'
done | sort -u >"$tmp/kept"

comm -23 "$tmp/defined" "$tmp/kept" | c++filt | sort -u >"$tmp/unreached"

if [[ -z "$allow" ]]; then
  cat "$tmp/unreached"
  exit 0
fi

status=0
if grep -vE '^[[:space:]]*(#|$)' "$allow" | grep -vE '  # [^[:space:]]'; then
  echo "unreached_functions: the entries above have no '  # reason'" >&2
  status=1
fi
grep -vE '^[[:space:]]*(#|$)' "$allow" | sed -E 's/  # .*$//' | sort >"$tmp/allowed"

new=$(comm -23 "$tmp/unreached" "$tmp/allowed")
if [[ -n "$new" ]]; then
  printf '%s\n' "$new"
  echo "unreached_functions: no shipped binary reaches the functions above;" \
       "delete them (or allowlist one with a reason)" >&2
  status=1
fi
stale=$(comm -13 "$tmp/unreached" "$tmp/allowed")
if [[ -n "$stale" ]]; then
  printf '%s\n' "$stale"
  echo "unreached_functions: the allowlisted functions above are reached or" \
       "gone; remove them from $allow" >&2
  status=1
fi
[[ $status -ne 0 ]] || echo "unreached_functions: $(wc -l <"$tmp/unreached") unreached, all allowlisted"
exit $status
