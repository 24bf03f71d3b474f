#!/bin/sh
# Tier-1 gate: the whole build and every test suite must pass, and the
# source must be free of formatting drift.
set -e
cd "$(dirname "$0")/.."
dune build
dune runtest

# Formatting gate.  With ocamlformat installed, `dune build @fmt` is
# authoritative.  Without it (the CI image does not ship one pinned), fall
# back to a dialect-free lint that still catches real drift: tabs and
# trailing whitespace in OCaml sources and dune files.
if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt
else
  drift=$(grep -rnl -e '	' -e ' $' \
    --include='*.ml' --include='*.mli' --include='dune' \
    lib bin bench test benchmark examples tools 2>/dev/null || true)
  if [ -n "$drift" ]; then
    echo "formatting drift (tabs or trailing whitespace) in:" >&2
    echo "$drift" >&2
    exit 1
  fi
fi
