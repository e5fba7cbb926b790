#!/bin/sh
# Every exported function has a production caller.
#
#   tools/dead_exports.sh BUILD MPABENCH_BINARY
#
# BUILD is a build tree configured with
#   -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections"
#   -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
# and MPABENCH_BINARY an mpabench built from mpabench/CMakeLists.txt
# with the same flags. At -O0 every called function keeps an
# out-of-line copy, and --gc-sections drops each one no root reaches,
# so a library function is linked into an executable exactly when
# something in it calls it. (At -O2 a callee inlined everywhere would
# read as dead.)
#
# Prints each strong mpa:: function of BUILD/src/**/*.a that no
# executable under BUILD/tools, BUILD/bench or BUILD/examples, nor
# mpabench, defines, less the names an allowlist prefix in
# tools/dead_exports.allow matches (one line each: a prefix, then the
# reason tests need it). Exits 1 when a name is printed, or when an
# allowlist line matches no such name.
set -eu
export LC_ALL=C

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD MPABENCH_BINARY" >&2
  exit 2
fi
build=$1
allow=$(dirname "$0")/dead_exports.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# "KIND NAME" for every symbol the given files define, demangled.
symbols() { nm -C --defined-only "$@" | sed -n 's/^[0-9a-f]* \([A-Za-z]\) /\1 /p'; }

symbols $(find "$build/src" -name '*.a') | sed -n 's/^T \(mpa::\)/\1/p' | sort -u \
  > "$tmp/exported"
[ -s "$tmp/exported" ] || { echo "$0: no mpa:: exports under $build/src" >&2; exit 2; }
symbols $(find "$build/tools" "$build/bench" "$build/examples" -maxdepth 1 -type f -perm -u+x) \
  "$2" | cut -c3- | sort -u > "$tmp/linked"
comm -23 "$tmp/exported" "$tmp/linked" > "$tmp/unlinked"

status=0
: > "$tmp/allowed"
while read -r prefix reason; do
  if [ -z "$reason" ]; then
    echo "$allow: '$prefix' gives no reason" >&2
    status=1
  fi
  if ! awk -v p="$prefix" 'index($0, p) == 1' "$tmp/unlinked" | grep . >> "$tmp/allowed"; then
    echo "$allow: '$prefix' matches no unlinked export; delete the line" >&2
    status=1
  fi
done < "$allow"

sort -u "$tmp/allowed" | comm -23 "$tmp/unlinked" - > "$tmp/dead"
if [ -s "$tmp/dead" ]; then
  echo "exported functions with no production caller:" >&2
  cat "$tmp/dead"
  status=1
fi
exit $status
