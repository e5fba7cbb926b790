#!/bin/sh
# Every exported function has a production caller.
#
#   tools/dead_exports.sh BUILD MPABENCH_BINARY
#
# BUILD is a build tree configured with
#   -DCMAKE_BUILD_TYPE=Debug
#   -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fkeep-inline-functions"
#   -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
# and MPABENCH_BINARY an mpabench built from mpabench/CMakeLists.txt
# with the same flags. At -O0 every called function keeps an
# out-of-line copy, and --gc-sections drops each one no root reaches,
# so a library function is linked into an executable exactly when
# something in it calls it. (At -O2 a callee inlined everywhere would
# read as dead.) -fkeep-inline-functions makes every translation unit
# emit each inline function it sees, so a member defined in a header
# lands in the libraries as a weak symbol even when nothing calls it;
# an executable still keeps its copy only when something in it does.
#
# Reads the strong (T) and weak (W) mpa:: functions of
# BUILD/src/**/*.a and prints each one that no executable under
# BUILD/tools, BUILD/bench or BUILD/examples, nor mpabench, defines.
# It skips three kinds of symbol:
#   - special members the compiler may write: constructors that take
#     nothing or their own class by const& or &&, destructors and
#     assignment operators;
#   - lambdas, linked exactly when the function that encloses them is;
#   - std:: templates that demangle with an mpa:: return type, such as
#     "mpa::Practice&& std::forward<...>(...)": the names with a space
#     before the first "(" that are not conversion operators.
# An allowlist prefix in tools/dead_exports.allow (one line each: a
# prefix, then the reason tests need it) excuses the names it starts.
# Exits 1 when a name is printed, or when an allowlist line matches no
# such name.
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

symbols $(find "$build/src" -name '*.a') | sed -n 's/^[TW] \(mpa::\)/\1/p' | sed -E \
  -e '/\{lambda/d' \
  -e '/::~|::operator=\(/d' \
  -e '/^((.*::)?([A-Za-z_][A-Za-z0-9_]*)(<.*>)?)::\3\((\1 const&|\1&&)?\)$/d' \
  -e '/^[^ (]*::operator /b' \
  -e '/^[^(]* /d' | sort -u > "$tmp/exported"
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
