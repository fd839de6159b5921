"""Set-up probe: import the library, make the tiny first calls of one
workload, print "ready" and exit.  ``run.py`` times it from process start
to that line.

    python3 perfbench/setup_probe.py <workload>
"""
import sys
from pathlib import Path

root = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(root / "src"))

import workloads  # noqa: E402  (imports maxkernel)

workloads.warm_up(sys.argv[1], root / ".perfbench_out")
print("ready", flush=True)
