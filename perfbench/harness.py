"""Machinery of the spinmix benchmark: corpora, the command loop, clocks,
spans and scalar counters.

Nothing here imports spinmix at module level, so that a fresh child process
can time the package import on its own (see ``child.py``). Every function
that needs the package calls :func:`import_cli`, which loads it from the
``src/`` tree of the checkout this file lives in, never from an installed
copy.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import operator
import os
import random
import shutil
import statistics
import sys
import time
import traceback
from array import array
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The corpus of this seed is checked against DIGESTS before every run.
DEFAULT_SEED = 0


def import_cli():
    """Import ``spinmix.cli`` from the checkout's ``src/`` directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from spinmix import cli
    return cli


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (CLI arguments without --trials/--seed/--out, README trial count)
    commands: tuple[tuple[tuple[str, ...], int], ...]
    # SHA-256 of each command's report at DEFAULT_SEED, pass 0
    digests: tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    Workload(
        "trees",
        "tree message passing, identity right-hand sides and small-number "
        "scalar ops do all the work; no 2^n enumeration, SAW tree or root "
        "finding runs",
        # cd-check cycles through all six corpus.PARAM_MODES by trial index
        ((("cd-check",), 200),
         (("gutman-check",), 200),
         (("qspin-check", "--q", "2"), 100),
         (("qspin-check", "--q", "3"), 100)),
        ("0c2c265e576e93a288850e98e214decb1d8968354fb59daf48ecfc5664481e2c",
         "cb30569a142102ba0a356c28f5e33c735b59944d42b5712df1f71004dcce6323",
         "156cce1eccf397162b379aadedb4751c6bffa81afcb5114e03147a88da02c029",
         "4aec80136814b2b361f570c7eceb20020e12f3297be7704da5cc98e1b04ef71b"),
    ),
    Workload(
        "cyclic",
        "2^n enumeration, full and cut SAW-tree builds, series division, the "
        "generators' duplicate evaluation and scalars of up to 600-3500 bits "
        "dominate on cyclic G(n,1/2) graphs; no tree identity runs",
        # saw-check and full-depth weitz stop at 7 vertices, not the README's
        # 9: the SAW tree grows exponentially with density, and one dense
        # 9-vertex saw-check instance took 16 s, half a run. Full-depth weitz
        # values are checked against the exact marginal; the depth-4 weitz at
        # README size cuts walks, so the truncated build is measured too, and
        # it makes the workload's largest scalars.
        ((("saw-check", "--max-vertices", "7"), 100),
         (("weitz", "--max-vertices", "7"), 50),
         (("weitz", "--depth", "4"), 50),
         (("ldc",), 100),
         (("ldc-beta",), 100)),
        ("11bc1536e10ccce4d43e3437567e60bde87b28e6bc5865ab4e83fed30d564c06",
         "4f68f940ea074e446978ffb0eeb86eefa379da70caaa060e29756961f1de65bd",
         "567c5d2ae93a9ab84965f6a38b25a2c2e550258ca9abc117c2e33afffb113488",
         "0a759de34b56e78fed5119441a1ded8d0080659cad091bf393d572bcf55c4dcc",
         "7cb22e747d638cb7c121ac47791d040eda48c25d17f430bac6d6174175a6d7b1"),
    ),
    Workload(
        "zeros",
        "only workload where exact square-free factoring, Aberth, match_roots "
        "and pin elimination work; division-heavy scalars of mid-size bit "
        "length",
        ((("annulus", "--beta", "3/2", "--degree-bound", "3"), 50),
         (("annulus", "--beta", "3/2", "--degree-bound", "4",
           "--max-vertices", "9"), 50)),
        ("87fb6016e44d06728435109b96ee8c59da0f832eed9f2f9a26d41dcf52a8f439",
         "c98fdae3ea8ba6ae0c7d037913143458d7d2e8fb78297bf0aeb998d318116e19"),
    ),
)}


def corpus(workload: str, seed: int, pass_index: int,
           trials: int | None = None) -> list[list[str]]:
    """CLI argument lists of one pass over a workload's corpus.

    Each command gets its own seed, derived from (workload, seed, pass,
    position), so one benchmark seed fixes every instance of every pass.
    ``trials`` overrides the README trial counts (tests use small corpora).
    """
    out = []
    for i, (args, n) in enumerate(WORKLOADS[workload].commands):
        cmd_seed = random.Random(f"{workload}:{seed}:{pass_index}:{i}").randrange(1 << 31)
        out.append([*args, "--trials", str(n if trials is None else trials),
                    "--seed", str(cmd_seed)])
    return out


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


# The CPU speed of a shared host drifts by up to half within minutes, the
# same for spinmix code and for any other Python code. Reported times are
# therefore scaled to a reference speed: a fixed stdlib Fraction loop is
# timed at every command boundary and, within a command, between trials
# once CAL_INTERVAL_S has passed. Each stretch of time between two such
# points is multiplied by CAL_REF_S over the loop's mean time at its ends.
# On identical work (2 shared vCPUs) this cut the run-to-run spread of wall
# time, as the quartile distance over the median, from 0.23 to 0.07.
CAL_ITERATIONS = 1000
CAL_REF_S = 0.0085
CAL_INTERVAL_S = 0.5


def calibration_s() -> float:
    """Median time of three runs of the reference loop, garbage collector
    off, so that the program's heap cannot slow the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            acc, x = Fraction(0), Fraction(3, 7)
            for i in range(1, CAL_ITERATIONS):
                acc = acc + x * Fraction(i, i + 1)
                if acc.denominator > 10 ** 30:
                    acc = Fraction(acc.numerator % 1000003, 17)
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Patches:
    """Attribute and dict-entry replacements, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set_attr(self, obj, name: str, value) -> None:
        self._undo.append((setattr, obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def set_item(self, mapping: dict, key, value) -> None:
        self._undo.append((operator.setitem, mapping, key, mapping[key]))
        mapping[key] = value

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for undo, obj, key, old in reversed(self._undo):
            undo(obj, key, old)
        self._undo.clear()


class TrialClock(Patches):
    """Thin clock reads around the entries of cli.GENERATORS and
    cli.EVALUATORS: one sample (generate + evaluate) per finished trial.

    It keeps the measured time, with and without scaling to reference
    speed, and excludes the time spent in the reference loop. It also
    tracks the stage the current trial is in, so that an exception escaping
    a command can be attributed to generation or evaluation.
    """

    def __init__(self, cli):
        super().__init__()
        self.samples_ms: list[float] = []
        self.finished = 0
        self.contract_failures = 0
        self.stage = "setup"
        self._gen_s = 0.0
        self.wall_s = 0.0
        self.ref_s = 0.0
        self._cal_s = calibration_s()
        self.start()
        for name, gen in list(cli.GENERATORS.items()):
            self.set_item(cli.GENERATORS, name, self._timed_generator(gen))
        for name, evaluate in list(cli.EVALUATORS.items()):
            self.set_item(cli.EVALUATORS, name, self._timed_evaluator(evaluate))

    def _timed_generator(self, gen):
        def timed(cfg, rng, trial):
            if time.perf_counter() - self._start >= CAL_INTERVAL_S:
                self.recalibrate()
            self.stage = "generate"
            t0 = time.perf_counter()
            inst = gen(cfg, rng, trial)
            self._gen_s = time.perf_counter() - t0
            return inst
        return timed

    def _timed_evaluator(self, evaluate):
        def timed(inst):
            self.stage = "evaluate"
            t0 = time.perf_counter()
            ok, row = evaluate(inst)
            self.samples_ms.append((self._gen_s + time.perf_counter() - t0) * 1e3)
            self.finished += 1
            if not ok:
                self.contract_failures += 1
            self.stage = "report"
            return ok, row
        return timed

    def start(self) -> None:
        """Start measuring time from now."""
        self._start = time.perf_counter()
        self._first_sample = len(self.samples_ms)

    def recalibrate(self) -> None:
        """Add the time since start() at reference speed, then start again."""
        wall = time.perf_counter() - self._start
        before, self._cal_s = self._cal_s, calibration_s()
        scale = CAL_REF_S / ((before + self._cal_s) / 2)
        self.wall_s += wall
        self.ref_s += wall * scale
        for i in range(self._first_sample, len(self.samples_ms)):
            self.samples_ms[i] *= scale
        self.start()


@dataclass
class CommandResult:
    argv: list[str]
    trials: int
    finished: int       # trials whose evaluator returned
    failed: int         # contract failures plus unfinished trials
    wall_s: float
    ref_s: float        # wall_s at reference speed
    exit_code: int | None
    error: str | None = None    # exception type, or "exit <code>"
    stage: str | None = None    # where the error arose
    detail: str | None = None
    digest: str | None = None   # SHA-256 of the report bytes

    @property
    def verified(self) -> int:
        return self.trials - self.failed


def run_command(cli, clock: TrialClock, argv: list[str], outdir: Path) -> CommandResult:
    """Run one corpus command in-process, the way ``spinmix`` runs it.

    An exception escaping the command is recorded, never re-raised: every
    trial it left unfinished counts as failed.
    """
    trials = int(argv[argv.index("--trials") + 1])
    report = outdir / "report.csv"
    finished0, failures0 = clock.finished, clock.contract_failures
    wall0, ref0 = clock.wall_s, clock.ref_s
    clock.stage = "setup"
    sink = io.StringIO()
    error = detail = None
    clock.start()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([*argv, "--out", str(report)])
    except Exception as exc:  # the benchmark keeps running and counts it
        code = None
        error = type(exc).__name__
        detail = traceback.format_exc(limit=-3)
    clock.recalibrate()
    if code not in (None, 0, 1):
        error = f"exit {code}"
        detail = sink.getvalue()[-500:]
    finished = clock.finished - finished0
    failed = clock.contract_failures - failures0 + (trials - finished)
    digest = None
    if report.exists():
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        report.unlink()
    return CommandResult(argv=argv, trials=trials, finished=finished, failed=failed,
                         wall_s=clock.wall_s - wall0, ref_s=clock.ref_s - ref0,
                         exit_code=code, error=error,
                         stage=clock.stage if error else None, detail=detail,
                         digest=digest)


def run_pass(cli, clock, argvs, outdir) -> list[CommandResult]:
    return [run_command(cli, clock, argv, outdir) for argv in argvs]


def digest_mismatches(workload: str, results: list[CommandResult]) -> list[dict]:
    """Commands of a DEFAULT_SEED pass whose report bytes differ from DIGESTS."""
    expected = WORKLOADS[workload].digests
    return [{"argv": r.argv, "expected": want, "got": r.digest}
            for r, want in zip(results, expected) if r.digest != want]


def summarize(results: list[CommandResult]) -> dict:
    return {
        "commands": len(results),
        "attempted": sum(r.trials for r in results),
        "failed": sum(r.failed for r in results),
        "verified": sum(r.verified for r in results),
        "wall_s": sum(r.wall_s for r in results),
        "ref_s": sum(r.ref_s for r in results),
        "errors": [{"argv": r.argv, "error": r.error, "stage": r.stage,
                    "unfinished": r.trials - r.finished, "detail": r.detail}
                   for r in results if r.error],
    }


# ---------------------------------------------------------------------------
# Spans (traced runs)
# ---------------------------------------------------------------------------


def _count_z_tree(counts, args, result):
    counts["partition.z_tree.vertices"] += args[0].n


def _count_configs(name):
    def count(counts, args, result):
        g, p = args[0], args[1]
        counts[name] += 1 << sum(1 for v in range(g.n) if v not in p)
    return count


def _count_saw(counts, args, result):
    saw, cuts = result if isinstance(result, tuple) else (result, ())
    counts["graphs.saw_nodes"] += saw.tree.n
    counts["graphs.saw_cuts"] += len(cuts)


def _count_series_div(counts, args, result):
    counts["numerics.series_div.order"] += args[1].order


def _count_report(counts, args, result):
    counts["cli.report.bytes"] += Path(args[0]).stat().st_size


# (span name, module, function, counter run after each completed call).
# A name after ":" only tells spans of one layer apart; the layer is the part
# before it. Each function is rebound in every spinmix namespace that holds
# it, so calls through any import path are traced.
TRACED = (
    ("cli.report", "cli", "_write_rows", _count_report),
    ("cli.generate:eval", "cli", "eval_weitz", None),
    ("cli.generate:eval", "cli", "eval_ldc_beta", None),
    ("corpus.draw:graph", "corpus", "rand_connected_graph", None),
    ("corpus.draw:graph", "corpus", "rand_bounded_degree_graph", None),
    ("corpus.draw:graph", "corpus", "rand_tree", None),
    ("corpus.draw", "corpus", "rand_params", None),
    ("corpus.draw", "corpus", "rand_scalar", None),
    ("corpus.draw", "corpus", "rand_feasible_pinning", None),
    ("corpus.draw", "corpus", "rand_pinning_pair", None),
    ("corpus.draw", "corpus", "rand_unpinned_pair", None),
    ("corpus.draw", "corpus", "rand_qspin_params", None),
    ("corpus.draw", "corpus", "rand_qspin_pinning", None),
    ("identities.cd_sides", "identities", "cd_sides", None),
    ("identities.cd_sides", "identities", "cd_equivalent_forms", None),
    ("identities.gutman_sides", "identities", "gutman_sides", None),
    ("identities.qspin_det_sides", "identities", "qspin_det_sides", None),
    ("identities.exact_determinant", "identities", "exact_determinant", None),
    ("partition.z_tree", "partition", "z_tree", _count_z_tree),
    ("partition.z_qspin_tree", "partition", "z_qspin_tree", None),
    ("partition.z_brute", "partition", "z_brute", _count_configs("partition.z_brute.configs")),
    ("partition.z_poly_lambda", "partition", "z_poly_lambda",
     _count_configs("partition.z_poly_lambda.configs")),
    ("partition.eliminate_pins", "partition", "eliminate_pins", None),
    ("mixing.marginal", "mixing", "marginal", None),
    ("mixing.saw_tree_marginal", "mixing", "saw_tree_marginal", None),
    ("mixing.weitz_approx_marginal", "mixing", "weitz_approx_marginal", None),
    ("mixing.marginal_series_lambda", "mixing", "marginal_series_lambda", None),
    ("mixing.marginal_series_beta", "mixing", "marginal_series_beta", None),
    ("graphs.saw_build", "graphs", "build_saw_tree", _count_saw),
    ("graphs.saw_build", "graphs", "build_saw_tree_truncated", _count_saw),
    ("numerics.series_div", "numerics", "series_div", _count_series_div),
    ("numerics.square_free", "numerics", "square_free_factors", None),
    # poly_roots minus its square-free child span is the Aberth iteration
    ("numerics.aberth", "numerics", "poly_roots", None),
    ("numerics.match_roots", "numerics", "match_roots", None),
    ("zerofree.annulus", "zerofree", "pinned_annulus_check", None),
)


class Tracer(Patches):
    """Spans at the boundaries between spinmix modules, kept in memory.

    Each span records its name, start, end and the span open when it began.
    A layer's self time is its spans' duration minus the time covered by
    their direct children. The traced functions stay replaced until the
    tracer, used as a context manager, exits.
    """

    def __init__(self, cli):
        super().__init__()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._install(cli)

    def wrap(self, name: str, fn, count=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        open_spans, clock = self._open, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(open_spans[-1] if open_spans else -1)
            self.end.append(0.0)
            open_spans.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                open_spans.pop()
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def _install(self, cli) -> None:
        """Trace every TRACED function and the GENERATORS/EVALUATORS entries."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "spinmix" or name.startswith("spinmix."))]
        for span, module, attr, count in TRACED:
            original = getattr(sys.modules[f"spinmix.{module}"], attr)
            wrapper = self.wrap(span, original, count)
            for namespace in modules:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        self.set_attr(namespace, name, wrapper)
        corpus_module = sys.modules["spinmix.corpus"]
        graph = corpus_module.Graph

        def counted_graph(*args, **kwargs):
            self.counts["corpus.draws"] += 1
            return graph(*args, **kwargs)
        self.set_attr(corpus_module, "Graph", counted_graph)
        for name, gen in list(cli.GENERATORS.items()):
            self.set_item(cli.GENERATORS, name, self.wrap("cli.generate", gen))
        for name, evaluate in list(cli.EVALUATORS.items()):
            self.set_item(cli.EVALUATORS, name, self.wrap("cli.evaluate", evaluate))

    def layer_totals(self) -> dict[str, float]:
        """Self seconds per layer, calls per span name, and the counters.

        ``cli.generate.evals`` counts full evaluations a generator ran on
        its candidates; ``cli.generate.draws`` counts the candidate graphs
        it drew.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        evals = graph_draws = 0
        for i in range(n):
            name = self.names[self.name_id[i]]
            out[f"{name.split(':')[0]}.self_s"] += self.end[i] - self.start[i] - child[i]
            out[f"{name}.calls"] += 1
            p = self.parent[i]
            if p >= 0 and self.names[self.name_id[p]] == "cli.generate":
                if name in ("cli.generate:eval", "mixing.marginal"):
                    evals += 1
                elif name == "corpus.draw:graph":
                    graph_draws += 1
        out["cli.generate.evals"] = evals
        out["cli.generate.draws"] = graph_draws
        out.update(self.counts)
        return dict(out)


@dataclass(frozen=True)
class Layer:
    """A per-layer metric, the end-to-end metric it should move, and the
    workloads on which it must be non-zero (busy) or exactly zero (idle)."""

    metric: str
    unit: str
    target: str
    busy: tuple[str, ...]
    idle: tuple[str, ...] = ()


ALL = tuple(WORKLOADS)
_TPUT = "throughput_inst_per_s on "


def _layers(metrics, unit, target, busy, idle=()):
    return tuple(Layer(m, unit, target, busy, idle) for m in metrics)


LAYERS = (
    *_layers(("cli.generate.self_s",), "s", _TPUT + "cyclic", ALL),
    # full evaluations the generators run as a rejection filter
    *_layers(("cli.generate.evals",), "count", _TPUT + "cyclic", ("cyclic",), ("trees", "zeros")),
    # instances returned per candidate graph a generator drew
    *_layers(("cli.generate.accept_ratio",), "ratio", _TPUT + "cyclic", ALL),
    *_layers(("cli.evaluate.self_s", "cli.report.self_s"), "s", _TPUT + "every workload", ALL),
    *_layers(("cli.report.bytes",), "bytes", _TPUT + "every workload", ALL),
    *_layers(("corpus.draw.self_s",), "s", _TPUT + "zeros", ALL),
    # graphs the corpus module built, rejected candidates included
    *_layers(("corpus.draws",), "count", _TPUT + "zeros", ALL),
    *_layers(("identities.cd_sides.self_s", "identities.gutman_sides.self_s",
              "identities.qspin_det_sides.self_s", "identities.exact_determinant.self_s"),
             "s", _TPUT + "trees, and inst_p50_ms on trees", ("trees",), ("cyclic", "zeros")),
    *_layers(("partition.z_tree.calls", "partition.z_tree.vertices"), "count",
             _TPUT + "trees, and SAW-tree evaluation on cyclic", ("trees", "cyclic"), ("zeros",)),
    *_layers(("partition.z_tree.self_s",), "s",
             _TPUT + "trees, and SAW-tree evaluation on cyclic", ("trees", "cyclic"), ("zeros",)),
    *_layers(("partition.z_qspin_tree.calls",), "count", _TPUT + "trees", ("trees",),
             ("cyclic", "zeros")),
    *_layers(("partition.z_qspin_tree.self_s",), "s", _TPUT + "trees", ("trees",),
             ("cyclic", "zeros")),
    *_layers(("partition.z_brute.self_s",), "s", _TPUT + "cyclic", ("cyclic",), ("trees", "zeros")),
    # configurations enumerated: sum of 2^(free vertices) over calls
    *_layers(("partition.z_brute.configs",), "count", _TPUT + "cyclic", ("cyclic",),
             ("trees", "zeros")),
    *_layers(("partition.z_poly_lambda.self_s",), "s", _TPUT + "cyclic and zeros",
             ("cyclic", "zeros"), ("trees",)),
    *_layers(("partition.z_poly_lambda.configs",), "count", _TPUT + "cyclic and zeros",
             ("cyclic", "zeros"), ("trees",)),
    *_layers(("partition.eliminate_pins.self_s",), "s", _TPUT + "zeros", ("zeros",),
             ("trees", "cyclic")),
    # marginal_series_beta's self time is its edge-activity enumeration
    *_layers(("mixing.marginal.self_s", "mixing.saw_tree_marginal.self_s",
              "mixing.weitz_approx_marginal.self_s", "mixing.marginal_series_lambda.self_s",
              "mixing.marginal_series_beta.self_s"), "s", _TPUT + "cyclic", ("cyclic",),
             ("trees", "zeros")),
    *_layers(("graphs.saw_build.self_s",), "s", "inst_tail_ms and peak_rss_mb on cyclic",
             ("cyclic",), ("trees", "zeros")),
    *_layers(("graphs.saw_nodes",), "count", "inst_tail_ms and peak_rss_mb on cyclic",
             ("cyclic",), ("trees", "zeros")),
    # walks cut at the depth bound of a truncated SAW tree
    *_layers(("graphs.saw_cuts",), "count", "inst_tail_ms and peak_rss_mb on cyclic",
             ("cyclic",), ("trees", "zeros")),
    *_layers(("numerics.series_div.self_s",), "s", _TPUT + "cyclic", ("cyclic",),
             ("trees", "zeros")),
    # sum of the truncation orders of the denominators divided
    *_layers(("numerics.series_div.order",), "count", _TPUT + "cyclic", ("cyclic",),
             ("trees", "zeros")),
    *_layers(("numerics.square_free.self_s", "numerics.aberth.self_s",
              "numerics.match_roots.self_s", "zerofree.annulus.self_s"), "s", _TPUT + "zeros",
             ("zeros",), ("trees", "cyclic")),
    # from the counting pass: outermost ExactComplex operator calls
    *_layers(("numerics.scalar_ops", "numerics.scalar_divs"), "count",
             _TPUT + "every workload", ALL),
    *_layers(("numerics.max_bits",), "bits", "inst_tail_ms on every workload", ALL),
    # 1 - traced / untraced throughput on the same corpus
    *_layers(("trace.overhead_frac",), "ratio", "none: the cost of tracing itself", ()),
)


# metrics of the counting pass, by the child's result keys
COUNTED = {"numerics.scalar_ops": "scalar_ops", "numerics.scalar_divs": "scalar_divs",
           "numerics.max_bits": "max_bits"}


def layer_metrics(layers: dict, counts: dict, overhead: float) -> dict[str, float]:
    """Per-layer metric values from a traced pass and a counting pass."""
    draws = layers.get("cli.generate.draws", 0)
    derived = {
        "cli.generate.accept_ratio": layers.get("cli.generate.calls", 0) / draws if draws else 0.0,
        "trace.overhead_frac": overhead,
        **{metric: counts[key] for metric, key in COUNTED.items()},
    }
    return {layer.metric: derived.get(layer.metric, layers.get(layer.metric, 0))
            for layer in LAYERS}


# ---------------------------------------------------------------------------
# Scalar counters (a separate pass, so per-op wrappers inflate no span)
# ---------------------------------------------------------------------------

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__")
DIVISIONS = ("__truediv__", "__rtruediv__")


class ScalarCounter(Patches):
    """Counts ExactComplex arithmetic and the largest bit length it makes.

    Only outermost operator calls count: the operations that ``__rsub__``,
    ``__rtruediv__`` and ``__pow__`` perform internally are part of the one
    call that spinmix code made.
    """

    def __init__(self, cls):
        super().__init__()
        self.ops = 0
        self.divs = 0
        self.max_bits = 0
        self._depth = 0
        # __radd__ and __rmul__ are aliases of __add__ and __mul__ in the
        # class dict, so each entry is wrapped on its own
        for name in ARITHMETIC:
            self.set_attr(cls, name, self._counted(vars(cls)[name], name in DIVISIONS))

    def _counted(self, fn, is_div: bool):
        def counted(*args):
            if self._depth:
                return fn(*args)
            self._depth += 1
            try:
                result = fn(*args)
            finally:
                self._depth -= 1
            self.ops += 1
            self.divs += is_div
            re, im = result.re, result.im
            bits = max(re.numerator.bit_length(), re.denominator.bit_length(),
                       im.numerator.bit_length(), im.denominator.bit_length())
            if bits > self.max_bits:
                self.max_bits = bits
            return result
        return counted


# ---------------------------------------------------------------------------
# Child-process modes
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def scratch_dir():
    """Report directory of one process, inside the checkout; removed after."""
    path = ROOT / ".perfbench_run" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def _gate(cli, clock, workload, outdir) -> dict:
    """One pass at DEFAULT_SEED, checked against the recorded digests."""
    results = run_pass(cli, clock, corpus(workload, DEFAULT_SEED, 0), outdir)
    return {**summarize(results), "digest_mismatches": digest_mismatches(workload, results)}


def _peak_rss_kib() -> int:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def child_run(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end run: digest gate, then passes over fresh corpora until
    time is up. The pass running then is completed, so every run measures
    whole passes, with the workload's exact mix of commands."""
    cli = import_cli()
    with TrialClock(cli) as clock, scratch_dir() as outdir:
        gate = _gate(cli, clock, workload, outdir)
        clock.samples_ms.clear()
        _, results = _passes_for(cli, clock, lambda p: corpus(workload, seed, p), outdir,
                                 seconds)
        samples = clock.samples_ms
    return {"gate": gate, "timed": summarize(results), "samples_ms": samples,
            "peak_rss_kib": _peak_rss_kib()}


def _passes_for(cli, clock, corpus_of, outdir, seconds) -> tuple[int, list[CommandResult]]:
    """Whole passes, corpus_of(pass index) each, until ``seconds`` are spent
    (at least one)."""
    results: list[CommandResult] = []
    passes = 0
    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 < seconds:
        results += run_pass(cli, clock, corpus_of(passes), outdir)
        passes += 1
    return passes, results


def child_trace(workload: str, seed: int, seconds: float) -> dict:
    """Traced run: the seed's first pass, untraced then traced.

    Both halves repeat the same corpus, so per-pass layer figures do not
    depend on how many passes fit, and the throughput gap between the
    halves is the tracing overhead. One discarded pass of that corpus runs
    first, so that both halves start with the same warm caches.
    """
    cli = import_cli()
    argvs = corpus(workload, seed, 0)
    with scratch_dir() as outdir:
        with TrialClock(cli) as clock:
            gate = _gate(cli, clock, workload, outdir)
            run_pass(cli, clock, argvs, outdir)
            plain_passes, plain = _passes_for(cli, clock, lambda p: argvs, outdir,
                                              seconds / 2)
        # the clock wraps the traced generators, so that its reference loop
        # runs outside every span
        with Tracer(cli) as tracer:
            with TrialClock(cli) as clock:
                traced_passes, results = _passes_for(cli, clock, lambda p: argvs, outdir,
                                                     seconds / 2)
    traced = summarize(results)
    scale = traced["ref_s"] / traced["wall_s"]
    layers = {k: v * scale if k.endswith(".self_s") else v
              for k, v in tracer.layer_totals().items()}
    return {"gate": gate, "plain": summarize(plain), "traced": traced,
            "plain_passes": plain_passes, "traced_passes": traced_passes,
            "layers": {k: v / traced_passes for k, v in layers.items()}}


def child_count(workload: str, seed: int, trials: int | None = None) -> dict:
    """Scalar counts over one pass of the seed's first corpus."""
    cli = import_cli()
    from spinmix.numerics import ExactComplex
    with TrialClock(cli) as clock, ScalarCounter(ExactComplex) as counter, \
            scratch_dir() as outdir:
        results = run_pass(cli, clock, corpus(workload, seed, 0, trials), outdir)
    return {"run": summarize(results), "scalar_ops": counter.ops,
            "scalar_divs": counter.divs, "max_bits": counter.max_bits}
