"""One child process of the spinmix benchmark; ``run.py`` starts it.

    python3 perfbench/child.py setup
    python3 perfbench/child.py run   WORKLOAD SEED SECONDS
    python3 perfbench/child.py trace WORKLOAD SEED SECONDS
    python3 perfbench/child.py count WORKLOAD SEED

The last line of standard output is one JSON object. ``setup`` times the
import of spinmix and the build of its CLI parser in this fresh process, so
it imports nothing else that the package would import first; it then times
the host-speed reference loop in the same process.
"""

import os
import sys
import time


def setup_seconds() -> float:
    # same source tree as harness.import_cli, without importing pathlib
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from spinmix import cli
    cli._build_parser()
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        seconds = setup_seconds()
        import harness
        result = {"setup_s": seconds, "calibration_s": harness.calibration_s()}
    else:
        import harness
        workload, seed = argv[1], int(argv[2])
        if mode == "run":
            result = harness.child_run(workload, seed, float(argv[3]))
        elif mode == "trace":
            result = harness.child_trace(workload, seed, float(argv[3]))
        else:
            result = harness.child_count(workload, seed)
    import json
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
