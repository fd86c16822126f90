"""Set-up of one workload in a fresh interpreter: `import surfquant`, then the
builds the program makes lazily on first use.  Prints both times as JSON.

    python3 bench/setup_probe.py WORKLOAD [--tiny]

The benchmark times this whole process from the outside as `setup_s`, and
runs it under `python3 -X importtime` for the per-module import breakdown.
"""

import json
import sys
import time
from pathlib import Path


def main(argv):
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import surfquant

    t1 = time.perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[argv[0]].lazy_build(surfquant, tiny="--tiny" in argv)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1:])
