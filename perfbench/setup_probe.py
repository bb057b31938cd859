"""Time one cold set-up of a workload and print it in seconds.

Set-up is what a CLI user pays before any solving: importing optrans (which
imports numpy and scipy) and building the workload's problems from presets.
run.py starts this in a fresh interpreter several times and reports the
median.  By hand, from the repository root:

    python3 perfbench/setup_probe.py solve_large
"""

import sys
import time
from pathlib import Path

from workloads import instances


def main(name: str) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    t0 = time.perf_counter()
    import optrans.cli  # noqa: F401  (the import the CLI pays on every call)
    from optrans.presets import preset

    for _, _, pid, n in instances(name):
        preset(pid, grid_n=n)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1])
