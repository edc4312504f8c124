"""Repeat the benchmark over several seeds and record its spread.

    python3 perfbench/record.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

Runs ``run.py`` once per workload and seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json, then one traced run per workload. For
every end-to-end metric it prints the median and the spread, which is the
distance between the first and third quartile as a share of the median,
next to the metric's bound. ``--out`` also writes everything, with the
machine it ran on, as JSON.

    python3 perfbench/record.py --digests

prints the report digests of the default seed's corpus instead, for
``harness.WORKLOADS`` after a deliberate change of a workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import harness

BENCHMARK = harness.ROOT / "BENCHMARK.json"
RUN = harness.ROOT / "perfbench" / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=harness.ROOT, timeout=300)
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    result["report"] = proc.stdout.splitlines()[:-1]
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def print_digests() -> None:
    cli = harness.import_cli()
    with harness.TrialClock(cli) as clock, harness.scratch_dir() as outdir:
        for name in harness.WORKLOADS:
            results = harness.run_pass(cli, clock, harness.corpus(name, harness.DEFAULT_SEED, 0),
                                       outdir)
            print(name, harness.summarize(results)["failed"], "failed")
            for r in results:
                print(f"  {r.digest}  {' '.join(r.argv)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--digests", action="store_true",
                        help="print the default seed's report digests and exit")
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--out", help="write the record to this JSON file")
    args = parser.parse_args()
    if args.digests:
        print_digests()
        return 0
    if not args.seeds:
        parser.error("--seeds is required")
    bench = json.loads(BENCHMARK.read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "default_seed": harness.DEFAULT_SEED,
        "workloads": {},
        "layers": [{"metric": la.metric, "unit": la.unit, "target": la.target,
                    "busy": list(la.busy), "idle": list(la.idle)} for la in harness.LAYERS],
    }
    for name in harness.WORKLOADS:
        w = harness.WORKLOADS[name]
        t0 = time.monotonic()
        runs = [run_once(name, seed, seconds, 0) for seed in args.seeds]
        entry = {
            "why": w.why,
            "composition": [" ".join((*cmd, "--trials", str(n))) for cmd, n in w.commands],
            "run_wall_s": (time.monotonic() - t0) / len(runs),
            "tail_percentiles": sorted({line.split()[3].rstrip(",") for r in runs
                                        for line in r["report"]
                                        if line.split()[0] == "inst_tail_ms"}),
            "end_to_end": {},
        }
        print(f"{name}: {len(runs)} runs, {entry['run_wall_s']:.1f} s each, "
              f"tail {entry['tail_percentiles']}")
        for metric, bound in bounds.items():
            s = spread([r["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = {**s, "bound": bound}
            flag = "" if s["spread"] < bound / 3 else "  <-- over a third of the bound"
            print(f"  {metric:<24} median {s['median']:>11.5g}  spread {s['spread']:.3f}"
                  f"  bound {bound}{flag}")
        traced = run_once(name, args.seeds[0], seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["trace"] = {"seed": args.seeds[0], "layers": layers}
        print(f"  tracing overhead {layers['trace.overhead_frac']:.3f}")
        record["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
