"""One set-up sample: import delaysched and generate a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from before ``import delaysched`` to the end of input
generation.  ``run.py`` starts it in fresh processes so each sample pays
the full import.  The clock starts before anything else is imported, so
every standard module the package loads counts in the sample; the
benchmark's own modules are imported after the package.
"""

import time

START = time.perf_counter()

import os  # noqa: E402  (both loaded by the interpreter at start-up)
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import delaysched  # noqa: E402,F401

import run  # noqa: E402
import workloads  # noqa: E402

dl = run.load_program()
if dl is None:
    sys.exit(2)
workloads.build(dl, sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - START)
