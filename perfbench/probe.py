"""Set-up probe: build one workload's serving state, say READY, then stop.

``python -m perfbench.probe <workload>`` imports the program, builds
everything the workload serves from, prints ``READY`` and waits for its
standard input to close.  The benchmark times process start to ``READY``
for several probes and reports the median as ``setup_s``.
"""

from __future__ import annotations

import importlib
import sys


def main(argv: list[str]) -> int:
    from perfbench.common import WORKLOADS, remove_dir, require_checkout, scratch_dir

    require_checkout()
    module = importlib.import_module(WORKLOADS[argv[0]])
    scratch = scratch_dir("probe-")
    try:
        serving = module.Serving(scratch)
        print("READY", flush=True)
        sys.stdin.read()
        serving.close()
    finally:
        remove_dir(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
