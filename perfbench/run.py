"""The spinmix benchmark: one run of one workload.

    python3 perfbench/run.py --workload trees --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. Each run starts fresh child processes
(``child.py``), one at a time and never in parallel:

* several that only import spinmix and build its CLI parser (``setup_s``);
* one that runs the workload's seeded corpus commands in-process through
  ``spinmix.cli.main``, exactly as the ``spinmix`` command runs them. Before
  timing, it runs the corpus of the default seed and checks every report
  against the SHA-256 digests recorded in ``harness.WORKLOADS``.

With ``--trace 1`` the workload child traces the calls between spinmix
modules instead, and a last child counts ``ExactComplex`` arithmetic.

Times are reported at the reference speed of ``harness.calibration_s``
(see ``harness.CAL_REF_S``); the raw figures are printed alongside.

The lines printed before the last name every metric with its unit and
sample count. The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A failed instance or a report
digest mismatch makes the run incorrect: its metrics are then left empty
and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_CHILDREN = 11
TAIL_PER_MILLE = (999, 990, 900, 500)
# a run, children included, must end within 180 s
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def spawn(deadline: float, *args) -> dict:
    """Run one child to completion and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), *map(str, args)], capture_output=True, text=True,
        cwd=harness.ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"child {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_seconds(deadline: float) -> list[tuple[float, float]]:
    """(raw, at reference speed) set-up time of several fresh children."""
    spawn(deadline, "setup")  # compiles bytecode in a fresh checkout; not timed
    out = []
    for _ in range(SETUP_CHILDREN):
        child = spawn(deadline, "setup")
        raw = child["setup_s"]
        out.append((raw, raw * harness.CAL_REF_S / child["calibration_s"]))
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for per_mille in TAIL_PER_MILLE:
        rank = -(-per_mille * n // 1000)  # nearest rank, in integers
        if n - rank >= 10:
            return per_mille / 10, ordered[rank - 1]
    return 100.0, ordered[-1]


def errors_of(*parts: dict) -> list[dict]:
    return [e for part in parts for e in part["errors"]]


def end_to_end(args, deadline) -> tuple[dict, list[dict], dict]:
    setups = setup_seconds(deadline)
    res = spawn(deadline, "run", args.workload, args.seed, args.seconds)
    gate, timed = res["gate"], res["timed"]
    samples = res["samples_ms"]
    pct, tail_ms = tail(samples)
    n = len(samples)
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s",
                    f"median of {len(setups)} fresh children; raw "
                    f"{statistics.median(raw for raw, _ in setups):.4g} s"),
        "throughput_inst_per_s": (timed["verified"] / timed["ref_s"], "1/s",
                                  f"{timed['verified']} verified instances in "
                                  f"{timed['wall_s']:.2f} s, {timed['commands']} commands; "
                                  f"raw {timed['verified'] / timed['wall_s']:.4g} 1/s"),
        "inst_p50_ms": (statistics.median(samples), "ms", f"n={n}"),
        "inst_tail_ms": (tail_ms, "ms", f"p{pct:g}, n={n}"),
        "peak_rss_mb": (res["peak_rss_kib"] / 1024, "MiB", "workload child"),
    }
    problems = {"errors": errors_of(gate, timed), "digest_mismatches": gate["digest_mismatches"]}
    return metrics, [gate, timed], problems


def traced(args, deadline) -> tuple[dict, list[dict], dict]:
    res = spawn(deadline, "trace", args.workload, args.seed, args.seconds)
    counts = spawn(deadline, "count", args.workload, args.seed)
    plain, tr = res["plain"], res["traced"]
    overhead = 1 - (tr["verified"] / tr["ref_s"]) / (plain["verified"] / plain["ref_s"])
    values = harness.layer_metrics(res["layers"], counts, overhead)
    note = f"per pass, {res['traced_passes']} traced passes"
    metrics = {layer.metric: (values[layer.metric], layer.unit,
                              "counting pass" if layer.metric in harness.COUNTED else note)
               for layer in harness.LAYERS}
    problems = {"errors": errors_of(res["gate"], plain, tr, counts["run"]),
                "digest_mismatches": res["gate"]["digest_mismatches"]}
    return metrics, [res["gate"], plain, tr, counts["run"]], problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (harness.SRC / "spinmix" / "__init__.py").is_file():
        print(f"perfbench: no spinmix package under {harness.SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, parts, problems = (traced if args.trace else end_to_end)(args, deadline)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    correct = failed == 0 and not problems["digest_mismatches"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_frac':<38} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} instances")
    if not correct:
        json.dump(problems, sys.stderr, indent=1)
        print(file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()} if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
