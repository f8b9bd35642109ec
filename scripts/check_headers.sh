#!/usr/bin/env bash
# Header checks, run first by scripts/ci.sh:
#  - layering: files under src/grid (the golden oracle) include only
#    common/ and grid/ project headers;
#  - self-containment: every public header under src/ compiles standalone
#    (no reliance on includer-provided declarations).
# Together they keep the layered library structure honest as the tree grows.
set -uo pipefail

cd "$(dirname "$0")/.."

CXX="${CXX:-g++}"
STD="${STD:-c++20}"

# Layering rule: the golden oracle (src/grid) shares no code with the
# hardware path, so files under src/grid may include only common/ and grid/
# project headers.
layer_fails=0
while IFS= read -r hit; do
  echo "LAYERING: src/grid may include only common/ and grid/ headers: ${hit}"
  layer_fails=$((layer_fails + 1))
done < <(grep -nE '^[[:space:]]*#[[:space:]]*include[[:space:]]*"' src/grid/* |
         grep -vE '#[[:space:]]*include[[:space:]]*"(common|grid)/')
if [ "${layer_fails}" -ne 0 ]; then
  echo "${layer_fails} include(s) break the src/grid layering rule"
  exit 1
fi

fails=0
for header in src/*/*.hpp; do
  if ! "${CXX}" -std="${STD}" -Isrc -Wall -Wextra -fsyntax-only \
       -x c++ "${header}" 2>/tmp/check_headers_err; then
    echo "NOT SELF-CONTAINED: ${header}"
    sed -n '1,5p' /tmp/check_headers_err
    fails=$((fails + 1))
  fi
done

if [ "${fails}" -ne 0 ]; then
  echo "${fails} header(s) failed the self-containment check"
  exit 1
fi
echo "all $(ls src/*/*.hpp | wc -l) headers are self-contained"
