"""Import ``repro`` and build one workload's inputs, then exit.

``run.py`` runs this file in a fresh interpreter several times and reports
the median wall time as ``setup_s``:

    python3 perfbench/build_inputs.py <workload> <seed>
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import get_workload  # noqa: E402

if __name__ == "__main__":
    get_workload(sys.argv[1]).build(int(sys.argv[2]))
