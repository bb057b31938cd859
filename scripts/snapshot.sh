#!/bin/sh
# Record what the CLI prints, writes and returns on a fixed set of runs, so
# that two checkouts can be compared with `diff -r` or, key by key and row by
# row, with scripts/snapshot_diff.py:
#
#   scripts/snapshot.sh OUT
#
# Runs the checkout's own src (not an installed optrans), 215 runs:
#   - solve, check, certify and nad on every preset at --grid-n 41 and 101;
#   - solve, check and certify on every preset at --grid-n 201;
#   - solve, check, certify and nad at --grid-n 41 on each preset variant of
#     tests/test_presets.py::VARIANTS;
#   - optrans presets.
# Each run gets a directory OUT/<name> holding its artifacts plus stdout,
# stderr and exit (the exit code).  At most two runs go at a time.
set -eu
[ $# -eq 1 ] || { echo "usage: $0 OUT" >&2; exit 2; }
ROOT=$(cd "$(dirname "$0")/.." && pwd)
export ROOT
mkdir -p "$1"
cd "$1"

# one line per run: <name> <argument>...
PYTHONPATH="$ROOT/src:$ROOT/scripts" python3 - <<'PY' |
from lp_counts import variants
from optrans.presets import preset_ids

for n in (41, 101):
    for pid in preset_ids():
        for cmd in ("solve", "check", "certify", "nad"):
            print(f"{cmd}-{pid}-n{n} {cmd} --preset {pid} --grid-n {n}")
for pid in preset_ids():
    for cmd in ("solve", "check", "certify"):
        print(f"{cmd}-{pid}-n201 {cmd} --preset {pid} --grid-n 201")
for pid, params in variants():
    kv = ",".join(f"{k}={v}" for k, v in params.items())
    for cmd in ("solve", "check", "certify", "nad"):
        print(f"{cmd}-{pid}-{kv.replace(',', '-')}-n41 {cmd} --preset {pid} --params {kv} --grid-n 41")
print("presets presets")
PY
xargs -P 2 -L 1 sh -c '
    mkdir -p "$0"
    PYTHONPATH="$ROOT/src" python3 -c "import sys; from optrans.cli import main; sys.exit(main())" \
        "$@" --out "$0" > "$0/stdout" 2> "$0/stderr"
    echo $? > "$0/exit"
'
echo "$(ls | wc -l) runs in $(pwd)"
