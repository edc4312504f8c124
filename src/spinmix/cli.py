"""Command-line front door: identity corpora, LDC sweeps, decay, zero scans.

The parsed arguments are the run configuration: each flag and its default
is declared once, in _build_parser, and the drivers, generators and
handlers read the argparse.Namespace directly. Every randomized command
derives its whole corpus from --seed, and report files are byte-identical
across runs with the same configuration. Generators hand evaluators typed
instances (Graph, Pinning, Params, ExactComplex values); JSON is only the
dump/replay wire format, written when an instance fails and decoded by
`replay` through the one table WIRE. Exit codes: 0 when every contract
assertion passed, 1 on a contract failure (the first failing instance is
dumped as JSON for `replay`), 2 on usage errors (argparse rejects a
malformed --beta, --gamma or --lambda, or roots without --beta), on
configuration errors (a flag only the other kind of run reads, --beta in a
corpus run or --trials in a --graph run, is one), on arithmetic that cannot
finish (a vanishing partition value, an undefined series division, a root
iteration that does not converge) and on a draw loop that reaches its bound;
141 (128 + SIGPIPE), with nothing on stderr, when the reader of stdout
closes it early, as `| head` does. The saw-check, weitz and ldc-beta corpora
leave out instances whose partition value vanishes: the driver draws such a
candidate again, at most corpus.DRAW_LIMIT times a trial.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from pathlib import Path

from . import corpus
from .errors import DrawLimitError, PinningError, RootConvergenceError, ZeroPartitionError
from .graphs import (Graph, MINUS, PLUS, Pinning, is_feasible, is_proper, parse_graph,
                     parse_pinning, saw_shape)
from .identities import cd_sides, gutman_sides, qspin_det_sides
from .mixing import (decay_profile, ldc_report, ldc_report_beta, marginal,
                     path_decay_instances, verify_saw_marginal,
                     weitz_approx_marginal)
from .numerics import ExactComplex, ONE, ZERO, parse_scalar
from .partition import Params, QSpinParams
from .zerofree import lambda_root_scan, pinned_annulus_check, region_min_modulus


# ---------------------------------------------------------------------------
# The dump/replay wire format
# ---------------------------------------------------------------------------


def _pins(doc: dict, two_spin: bool = True) -> Pinning:
    """A pinning from {"pins": {"<vertex>": spin}}: a 2-spin spin must be
    "+" or "-"; q-spin spins are ints, checked against 1..q by the q-spin passes."""
    pins = {}
    for k, s in doc.get("pins", {}).items():
        if two_spin and s not in (PLUS, MINUS):
            raise PinningError(f"bad spin {s!r} at vertex {k}")
        pins[int(k)] = s if isinstance(s, str) else int(s)
    return Pinning.of(pins)


def _int(x, nullable: bool = False) -> int | None:
    """A JSON integer (or a null, where it means the default); true, 1.0 and
    "1" have the wrong type."""
    if type(x) is not int and not (nullable and x is None):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


# The decoder of each instance key's JSON value; it raises TypeError or
# AttributeError on a value of the wrong type. Other keys (mode) pass as they
# are; a (command, key) entry overrides a key's decoder for that command.
WIRE = {"graph": parse_graph, "pins": _pins, "pins_a": _pins, "pins_b": _pins,
        ("qspin-check", "pins"): functools.partial(_pins, two_spin=False),
        "params": Params.from_json, "qparams": QSpinParams.from_json,
        **dict.fromkeys(("lambda", "beta", "gamma", "center"), ExactComplex.from_json),
        # a null gamma ties ldc-beta's edge activities (Ising)
        ("ldc-beta", "gamma"): lambda x: None if x is None else ExactComplex.from_json(x),
        **dict.fromkeys(("u", "v", "depth"), _int),
        **dict.fromkeys(("order", "degree_bound"), functools.partial(_int, nullable=True))}


def _encode(inst: dict) -> dict:
    """The JSON form of a typed instance."""
    return {k: v.to_json() if hasattr(v, "to_json") else v for k, v in inst.items()}


def _decode(command: str, doc: dict) -> dict:
    """The typed instance of a command from its JSON form."""
    inst = {}
    for k, v in doc.items():
        decode = WIRE.get((command, k), WIRE.get(k))
        inst[k] = v if decode is None else decode(v)
    return inst


# ---------------------------------------------------------------------------
# Single-instance evaluators of typed instances (corpus, --graph and replay)
# ---------------------------------------------------------------------------


def eval_cd(inst: dict) -> tuple[bool, dict]:
    g = inst["graph"]
    rep = cd_sides(g, inst["pins"], inst["u"], inst["v"], inst["params"])
    ok = rep.equal and rep.forms_equal
    row = {"n": g.n, "u": inst["u"], "v": inst["v"], "distance": rep.distance,
           "path_hits_pinning": rep.path_hits_pinning,
           "lhs": str(rep.lhs), "rhs": str(rep.rhs),
           "equal": rep.equal, "equivalent_forms": rep.forms_equal, "pass": ok}
    return ok, row


def eval_gutman(inst: dict) -> tuple[bool, dict]:
    g = inst["graph"]
    rep = gutman_sides(g, inst["u"], inst["v"], inst["lambda"])
    row = {"n": g.n, "u": inst["u"], "v": inst["v"], "distance": rep.distance,
           "lhs": str(rep.lhs), "rhs": str(rep.rhs),
           "equal": rep.equal, "pass": rep.equal}
    return rep.equal, row


def eval_qspin(inst: dict) -> tuple[bool, dict]:
    g, qp = inst["graph"], inst["qparams"]
    rep = qspin_det_sides(g, inst["pins"], inst["u"], inst["v"], qp)
    row = {"n": g.n, "q": qp.q, "u": inst["u"], "v": inst["v"],
           "distance": rep.distance, "path_hits_pinning": rep.path_hits_pinning,
           "lhs": str(rep.lhs), "rhs": str(rep.rhs),
           "equal": rep.equal, "pass": rep.equal}
    return rep.equal, row


def eval_saw(inst: dict) -> tuple[bool, dict]:
    g, v = inst["graph"], inst["v"]
    equal = verify_saw_marginal(g, inst["pins"], v, inst["params"])
    # the structure of the bare SAW tree (no pins), from a walk with no arithmetic
    degree, depths = saw_shape(g, v)
    degree_ok = degree == g.max_degree()
    distances_ok = depths == g.distances_from(v)
    ok = equal and degree_ok and distances_ok
    row = {"n": g.n, "v": v, "marginal_equal": equal, "degree_ok": degree_ok,
           "distances_ok": distances_ok, "pass": ok}
    return ok, row


def eval_ldc(inst: dict) -> tuple[bool, dict]:
    g, v = inst["graph"], inst["v"]
    return _ldc_row(g, v, ldc_report(g, inst["pins_a"], inst["pins_b"], v,
                                     inst["beta"], inst["gamma"], inst.get("order")))


def eval_ldc_beta(inst: dict) -> tuple[bool, dict]:
    g, v = inst["graph"], inst["v"]
    return _ldc_row(g, v, ldc_report_beta(g, inst["pins_a"], inst["pins_b"], v,
                                          inst["gamma"], inst["lambda"], inst["center"],
                                          inst.get("order")))


def _ldc_row(g: Graph, v: int, rep) -> tuple[bool, dict]:
    """The verdict and row of one locality report (eval_ldc, eval_ldc_beta)."""
    row = {"n": g.n, "v": v,
           "distance": "inf" if rep.distance == math.inf else rep.distance,
           "first_difference": rep.first_difference, "order": rep.order,
           "satisfied": rep.satisfied, "pass": rep.satisfied}
    return rep.satisfied, row


def eval_weitz(inst: dict) -> tuple[bool, dict]:
    g, p, params = inst["graph"], inst["pins"], inst["params"]
    v, depth = inst["v"], inst["depth"]
    value, exact = weitz_approx_marginal(g, v, p, params, depth)
    ok = True
    matches = None
    if depth >= g.n:
        truth = marginal(g, p, v, params)
        matches = value == truth
        ok = exact and matches
    row = {"n": g.n, "v": v, "depth": depth, "value": str(value),
           "exact": exact, "matches_marginal": matches, "pass": ok}
    return ok, row


def eval_annulus(inst: dict) -> tuple[bool, dict]:
    g = inst["graph"]
    rep = pinned_annulus_check(g, inst["pins"], inst["beta"], inst.get("degree_bound"))
    ok = rep.annulus_violations == 0 and rep.cross_check_mismatch == 0.0
    row = {"n": g.n, "degree_bound": inst.get("degree_bound"),
           "violations": rep.annulus_violations,
           "cross_check_mismatch": rep.cross_check_mismatch,
           "min_modulus": rep.min_modulus, "max_modulus": rep.max_modulus,
           "pass": ok}
    return ok, row


EVALUATORS = {
    "cd-check": eval_cd,
    "gutman-check": eval_gutman,
    "qspin-check": eval_qspin,
    "saw-check": eval_saw,
    "ldc": eval_ldc,
    "ldc-beta": eval_ldc_beta,
    "weitz": eval_weitz,
    "annulus": eval_annulus,
}


# ---------------------------------------------------------------------------
# Corpus generators per command
# ---------------------------------------------------------------------------


def _gen_cd(cfg: argparse.Namespace, rng: random.Random, trial: int) -> dict:
    n = rng.randint(2, cfg.max_vertices)
    t = corpus.rand_tree(rng, n)
    mode = corpus.PARAM_MODES[trial % len(corpus.PARAM_MODES)]
    params = corpus.rand_params(rng, mode, n)
    u, v = corpus.rand_unpinned_pair(rng, t, Pinning())
    pins = corpus.rand_feasible_pinning(rng, t, params.beta_is_zero,
                                        params.gamma_is_zero, exclude=(u, v))
    return {"graph": t, "pins": pins, "params": params, "u": u, "v": v, "mode": mode}


def _gen_gutman(cfg: argparse.Namespace, rng: random.Random, trial: int) -> dict:
    n = rng.randint(2, cfg.max_vertices)
    t = corpus.rand_tree(rng, n)
    u, v = rng.sample(range(n), 2)
    lam = corpus.rand_scalar(rng, nonzero=True, complex_prob=0.25)
    return {"graph": t, "u": u, "v": v, "lambda": lam}


def _gen_qspin(cfg: argparse.Namespace, rng: random.Random, trial: int) -> dict:
    n = rng.randint(2, cfg.max_vertices)
    t = corpus.rand_tree(rng, n)
    q = cfg.q if cfg.q else (2 if trial % 2 == 0 else 3)
    qp = corpus.rand_qspin_params(rng, q)
    u, v = rng.sample(range(n), 2)
    pins = corpus.rand_qspin_pinning(rng, t, q, exclude=(u, v))
    return {"graph": t, "pins": pins, "qparams": qp, "u": u, "v": v}


def _draw_proper(cfg: argparse.Namespace, rng: random.Random,
                 mode: str) -> tuple[int, dict]:
    """A connected graph with drawn parameters and pins, and a vertex proper
    to the pinning; the whole draw is repeated until such a vertex exists,
    at most corpus.DRAW_LIMIT times. Returns the vertex count and the instance."""
    for _ in range(corpus.DRAW_LIMIT):
        n = rng.randint(2, cfg.max_vertices)
        g = corpus.rand_connected_graph(rng, n)
        params = corpus.rand_params(rng, mode, n)
        pins = corpus.rand_feasible_pinning(rng, g, params.beta_is_zero,
                                            params.gamma_is_zero)
        proper = [v for v in range(n)
                  if is_proper(g, pins, v, params.beta_is_zero, params.gamma_is_zero)]
        if proper:
            return n, {"graph": g, "pins": pins, "params": params,
                       "v": rng.choice(proper)}
    raise DrawLimitError(f"no vertex proper to the pinning in {corpus.DRAW_LIMIT} draws")


def _gen_saw(cfg: argparse.Namespace, rng: random.Random, trial: int) -> dict:
    mode = ("generic", "beta0", "gamma0", "complex", "fields")[trial % 5]
    _, inst = _draw_proper(cfg, rng, mode)
    return {**inst, "mode": mode}


def _gen_ldc(cfg: argparse.Namespace, rng: random.Random, trial: int) -> dict:
    n = rng.randint(2, cfg.max_vertices)
    g = corpus.rand_connected_graph(rng, n)
    beta = corpus.rand_scalar(rng, complex_prob=0.2)
    if trial % 4 == 0:
        beta = ExactComplex(0)
    gamma = corpus.rand_scalar(rng, nonzero=True, complex_prob=0.2)
    bz = beta.is_zero()
    v = rng.randrange(n)
    a, b = corpus.rand_pinning_pair(rng, g, bz, False, exclude=(v,))
    return {"graph": g, "pins_a": a, "pins_b": b, "beta": beta, "gamma": gamma, "v": v}


def _gen_ldc_beta(cfg: argparse.Namespace, rng: random.Random, trial: int) -> dict:
    n = rng.randint(2, cfg.max_vertices)
    g = corpus.rand_connected_graph(rng, n)
    gamma = corpus.rand_scalar(rng, nonzero=True, complex_prob=0.2)
    lam = corpus.rand_scalar(rng, nonzero=True, complex_prob=0.2)
    center = ONE / gamma
    v = rng.randrange(n)
    a, b = corpus.rand_pinning_pair(rng, g, False, False, exclude=(v,))
    return {"graph": g, "pins_a": a, "pins_b": b, "gamma": gamma, "lambda": lam,
            "center": center, "v": v}


def _gen_weitz(cfg: argparse.Namespace, rng: random.Random, trial: int) -> dict:
    n, inst = _draw_proper(cfg, rng, ("generic", "beta0", "complex")[trial % 3])
    return {**inst, "depth": cfg.depth if cfg.depth is not None else n}


def _gen_annulus(cfg: argparse.Namespace, rng: random.Random, trial: int) -> dict:
    n = rng.randint(2, cfg.max_vertices)
    g = corpus.rand_bounded_degree_graph(rng, n, cfg.degree_bound)
    # keep one vertex unpinned so the field polynomial has degree >= 1
    free = rng.randrange(n)
    pins = corpus.rand_feasible_pinning(rng, g, False, False, exclude=(free,))
    return {"graph": g, "pins": pins, "beta": cfg.beta, "degree_bound": cfg.degree_bound}


GENERATORS = {
    "cd-check": _gen_cd,
    "gutman-check": _gen_gutman,
    "qspin-check": _gen_qspin,
    "saw-check": _gen_saw,
    "ldc": _gen_ldc,
    "ldc-beta": _gen_ldc_beta,
    "weitz": _gen_weitz,
    "annulus": _gen_annulus,
}

# Corpora that leave out instances whose partition value vanishes: the driver
# draws such a candidate again. Evaluation consumes no randomness, so each
# corpus is the one its generator would draw if it filtered candidates itself,
# and each instance is evaluated once.
REDRAW_ON_ZERO = frozenset({"saw-check", "weitz", "ldc-beta"})


# ---------------------------------------------------------------------------
# Report writing
# ---------------------------------------------------------------------------


def _write_rows(path: str, rows: list[dict] | dict, fmt: str):
    """Write a report, creating its directory; JSON takes any document."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        p.write_text(json.dumps(rows, sort_keys=True, indent=1) + "\n")
        return
    keys: list[str] = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    lines = [",".join(keys)]
    for row in rows:
        cells = []
        for k in keys:
            val = row.get(k, "")
            if isinstance(val, float):
                val = repr(val)
            elif val is None:
                val = ""
            cells.append(str(val))
        lines.append(",".join(cells))
    p.write_text("\n".join(lines) + "\n")


def _dump_failure(cfg: argparse.Namespace, trial: int, inst: dict, row: dict) -> str:
    name = f"{cfg.command}_failure.json"
    base = Path(cfg.out).parent if cfg.out else Path(".")
    path = base / name
    doc = {"command": cfg.command, "seed": cfg.seed, "trial": trial,
           "instance": _encode(inst), "row": row}
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return str(path)


def _finish(cfg: argparse.Namespace, rows: list[dict],
            failures: list[tuple[int, dict, dict]], echo: bool = False) -> int:
    """The tail of corpus and --graph runs: write the report (or, with ``echo``
    and no --out, print each row), dump the first failing (trial, instance,
    row), print the summary line and return the exit code."""
    if cfg.out:
        _write_rows(cfg.out, rows, cfg.format)
    elif echo:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    if failures:
        where = _dump_failure(cfg, *failures[0])
        print(f"first failing instance dumped to {where}", file=sys.stderr)
    fails = len(failures)
    print(f"{cfg.command} pass={len(rows) - fails} fail={fails} seed={cfg.seed}")
    return 0 if fails == 0 else 1


# ---------------------------------------------------------------------------
# Command drivers
# ---------------------------------------------------------------------------


def _run_corpus_command(cfg: argparse.Namespace) -> int:
    # the documented defaults of the flags only these runs read (cfg.corpus_only)
    for _, name, default in getattr(cfg, "corpus_only", ()):
        if getattr(cfg, name) is None:
            setattr(cfg, name, default)
    rng = random.Random(cfg.seed)
    gen = GENERATORS[cfg.command]
    evaluate = EVALUATORS[cfg.command]
    rows = []
    failures = []
    redraw = cfg.command in REDRAW_ON_ZERO
    for trial in range(cfg.trials):
        for _ in range(corpus.DRAW_LIMIT):
            inst = gen(cfg, rng, trial)
            try:
                ok, row = evaluate(inst)
                break
            except ZeroPartitionError:
                if not redraw:
                    raise
        else:
            raise DrawLimitError(f"trial {trial}: the partition value vanished on "
                                 f"{corpus.DRAW_LIMIT} drawn candidates")
        row = {"trial": trial, **row}
        rows.append(row)
        if not ok:
            failures.append((trial, inst, row))
    return _finish(cfg, rows, failures)


def _run_single_file_command(cfg: argparse.Namespace) -> int:
    """Commands driven by an explicit --graph file instead of a seeded corpus."""
    g = parse_graph(Path(cfg.graph).read_text())
    pins = Pinning()
    if cfg.pins:
        pins = parse_pinning(Path(cfg.pins).read_text())

    if cfg.command == "roots":
        gamma = cfg.beta if cfg.gamma is None else cfg.gamma
        rep = lambda_root_scan(g, pins, cfg.beta, gamma)
        doc = rep.to_json()
        if cfg.out:
            rows = doc if cfg.format == "json" else [
                {"re": r.real, "im": r.imag, "modulus": abs(r)} for r in rep.roots]
            _write_rows(cfg.out, rows, cfg.format)
        else:
            print(json.dumps(doc, sort_keys=True, indent=1))
        print(f"{cfg.command} pass=1 fail=0 seed={cfg.seed}")
        return 0

    if cfg.command == "annulus":
        inst = {"graph": g, "pins": pins, "beta": cfg.beta, "degree_bound": cfg.degree_bound}
        ok, row = eval_annulus(inst)
        return _finish(cfg, [row], [] if ok else [(0, inst, row)], echo=True)

    # the documented defaults of the flags only these runs read (cfg.graph_only)
    beta = ZERO if cfg.beta is None else cfg.beta
    gamma = ONE if cfg.gamma is None else cfg.gamma

    if cfg.command == "ldc":
        hard = beta.is_zero(), gamma.is_zero()
        # an infeasible --pins file is an error even when it leaves no (v, u) pair
        if not is_feasible(g, pins, *hard):
            raise ZeroPartitionError("partition polynomial is identically zero")
        rows = []
        failures = []
        for v in range(g.n):
            for u in range(g.n):
                if u == v or u in pins or v in pins:
                    continue
                for spin in (PLUS, MINUS):
                    pinned = pins.with_pin(u, spin)
                    # skip an extension u's pin makes infeasible, as the corpus
                    # (rand_pinning_pair) draws none
                    if not is_feasible(g, pinned, *hard):
                        continue
                    inst = {"graph": g, "pins_a": pins, "pins_b": pinned,
                            "beta": beta, "gamma": gamma, "v": v}
                    ok, row = eval_ldc(inst)
                    row = {"v": v, "u": u, "pin": spin, **row}
                    rows.append(row)
                    if not ok:
                        failures.append((0, inst, row))
        return _finish(cfg, rows, failures, echo=True)

    # weitz: the per-vertex fields of the graph file, else --lambda (default 1)
    if g.fields is None:
        field = ONE if cfg.lam is None else cfg.lam
    elif cfg.lam is None:
        field = g.fields
    else:
        raise ValueError("--lambda conflicts with per-vertex fields in the graph file")
    inst = {"graph": g, "pins": pins, "params": Params(beta, gamma, field),
            "v": 0 if cfg.vertex is None else cfg.vertex,
            "depth": g.n if cfg.depth is None else cfg.depth}
    ok, row = eval_weitz(inst)
    return _finish(cfg, [row], [] if ok else [(0, inst, row)], echo=True)


def _run_decay(cfg: argparse.Namespace) -> int:
    params = Params(cfg.beta, cfg.gamma, cfg.lam)
    kmin = cfg.kmin
    if params.beta_is_zero and cfg.mode in ("ssm", "psm") and kmin < 2:
        kmin = 2
    if cfg.kmax < kmin:
        raised = f" (--kmin {cfg.kmin} is raised to 2 at beta = 0)" if kmin != cfg.kmin else ""
        raise ValueError(f"--kmax {cfg.kmax} is below kmin {kmin}{raised}")
    prof = decay_profile(path_decay_instances(cfg.kmax, cfg.mode, kmin), params)
    if cfg.out:
        rows = [{"k": r.k, "gap": r.gap, "log_gap": r.log_gap} for r in prof.rows]
        _write_rows(cfg.out, rows, cfg.format)
        Path(str(cfg.out) + ".json").write_text(
            json.dumps(prof.sidecar(), sort_keys=True, indent=1) + "\n")
    else:
        for r in prof.rows:
            print(json.dumps({"k": r.k, "gap": r.gap, "log_gap": r.log_gap}))
        print(json.dumps(prof.sidecar(), sort_keys=True))
    print(f"decay pass={len(prof.rows)} fail=0 seed={cfg.seed}")
    return 0


def _run_region(cfg: argparse.Namespace) -> int:
    instances = []
    for n in range(2, cfg.max_vertices + 1):
        g = Graph(n, tuple((i, i + 1) for i in range(n - 1)))
        instances.append((g, Pinning()))
    side, span = cfg.grid, cfg.span
    grid = []
    for i in range(side):
        for j in range(side):
            re = -span + 2 * span * i / (side - 1) if side > 1 else 0.0
            im = -span + 2 * span * j / (side - 1) if side > 1 else 0.0
            grid.append(complex(re, im))
    table = region_min_modulus(instances, cfg.beta, cfg.gamma, grid)
    rows = [{"re": lam.real, "im": lam.imag, "min_modulus": m} for lam, m in table]
    return _finish(cfg, rows, [], echo=True)


# 128 + SIGPIPE, the status a shell reports for a command stopped by a closed pipe
EXIT_BROKEN_PIPE = 141


def run(cfg: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit code."""
    try:
        graph_run = getattr(cfg, "graph", None) is not None
        only = getattr(cfg, "corpus_only" if graph_run else "graph_only", ())
        given = [flag for flag, name, *_ in only if getattr(cfg, name) is not None]
        if given and graph_run:
            raise ValueError(f"only seeded corpus runs read {', '.join(given)}; "
                             f"a --graph {cfg.command} run reads one graph file")
        if given:
            raise ValueError(f"only --graph runs read {', '.join(given)}; "
                             f"a seeded {cfg.command} corpus draws its own")
        if getattr(cfg, "max_vertices", None) is not None and cfg.max_vertices < 2:
            raise ValueError(f"--max-vertices must be at least 2, got {cfg.max_vertices}")
        if getattr(cfg, "trials", None) is not None and cfg.trials < 0:
            raise ValueError(f"--trials must be at least 0, got {cfg.trials}")
        if cfg.command == "region" and not math.isfinite(cfg.span):
            raise ValueError(f"--span must be finite, got {cfg.span}")
        if cfg.command == "region" and cfg.grid < 1:
            raise ValueError(f"--grid must be at least 1, got {cfg.grid}")
        # the grid's largest intermediate, 2 * span * (grid - 1), must be
        # finite; a grid of side 1 never computes it
        if (cfg.command == "region" and cfg.grid > 1
                and not math.isfinite(2 * cfg.span * (cfg.grid - 1))):
            raise ValueError(f"--span {cfg.span} overflows a grid of side {cfg.grid}")
        if cfg.command == "decay":
            code = _run_decay(cfg)
        elif cfg.command == "region":
            code = _run_region(cfg)
        elif graph_run:
            code = _run_single_file_command(cfg)
        else:
            code = _run_corpus_command(cfg)
        # a closed pipe surfaces here, not in the flush at shutdown
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout left (`| head`): point stdout at devnull so
        # that the flush at shutdown does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RootConvergenceError, DrawLimitError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def replay(dump_path: str) -> int:
    """Re-execute exactly one dumped instance; deterministic. Exit codes as
    for run(): 0 pass, 1 contract failure, 2 on a malformed dump, a value
    error or arithmetic that cannot finish."""
    try:
        doc = json.loads(Path(dump_path).read_text())
        command = doc["command"]
        evaluate = EVALUATORS[command]
        inst = doc["instance"]
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"malformed dump: {exc}", file=sys.stderr)
        return 2
    try:
        try:
            inst = _decode(command, inst)
        except (TypeError, AttributeError) as exc:
            # a value of the wrong JSON type, such as "instance": 5
            print(f"malformed dump: {exc}", file=sys.stderr)
            return 2
        ok, row = evaluate(inst)
    except KeyError as exc:
        print(f"malformed dump: instance lacks {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RootConvergenceError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"command": command, "row": row}, sort_keys=True))
    print(f"replay {command} pass={int(ok)} fail={int(not ok)}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinmix",
        description=("Exact 2-spin identity corpora, locality sweeps, decay "
                     "profiles, and zero scans. Random corpora are Erdos-Renyi "
                     "graphs (edge probability 1/2, conditioned on "
                     "connectivity); trees are uniform spanning trees of such "
                     "graphs; rational parameters keep numerator and "
                     "denominator magnitudes within 10. The seed fully "
                     "determines every corpus."))
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, trials=None, max_vertices=None):
        """Flags every command shares; only corpus commands get --trials."""
        sp.add_argument("--seed", type=int, default=0)
        if trials is not None:
            sp.add_argument("--trials", type=int, default=trials)
        if max_vertices is not None:
            sp.add_argument("--max-vertices", type=int, default=max_vertices)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_scalar(sp, flag, default=None, note="", required=False):
        """A scalar flag (--beta, --gamma or --lambda, read as cfg.lam); a
        None default leaves it unset."""
        return sp.add_argument(flag, type=parse_scalar, default=default, required=required,
                               dest="lam" if flag == "--lambda" else None,
                               help=(f"rational p/q, optionally p/q,p/q for a complex value; "
                                     f"give a negative value as {flag}=-p/q{note}"))

    def add_graph_run(sp, *scalars, vertex=False):
        """--graph, and the flags only a --graph run reads: --pins, the
        scalars given as (flag, default) and, with ``vertex``, --vertex.
        Each is unset by default, and cfg.graph_only lists them as (flag,
        attribute), so a corpus run given one is a configuration error;
        _run_single_file_command fills in the defaults. The other way round,
        --trials and --max-vertices become unset, cfg.corpus_only lists them
        as (flag, attribute, default) and _run_corpus_command fills them in."""
        corpus_only = tuple((f"--{name.replace('_', '-')}", name, sp.get_default(name))
                            for name in ("trials", "max_vertices"))
        sp.set_defaults(corpus_only=corpus_only, trials=None, max_vertices=None)
        sp.add_argument("--graph", type=str, default=None)
        only = [sp.add_argument("--pins", type=str, default=None, help="--graph runs only")]
        only += [add_scalar(sp, flag, note=f" (--graph runs only; default {default})")
                 for flag, default in scalars]
        if vertex:
            only.append(sp.add_argument("--vertex", type=int, default=None,
                                        help="--graph runs only (default 0)"))
        sp.set_defaults(graph_only=tuple((a.option_strings[0], a.dest) for a in only))

    sp = sub.add_parser("cd-check", help="pair-difference identity corpus on trees")
    add_common(sp, 200, 14)
    sp = sub.add_parser("gutman-check", help="hard-core deletion identity corpus")
    add_common(sp, 200, 12)
    sp = sub.add_parser("qspin-check", help="q-spin determinant identity corpus")
    add_common(sp, 100, 8)
    sp.add_argument("--q", type=int, default=0, help="spin count (0 alternates 2 and 3)")
    sp = sub.add_parser("saw-check", help="SAW-tree marginal and structure corpus")
    add_common(sp, 100, 9)
    sp = sub.add_parser("ldc", help="field-series coefficient locality")
    add_common(sp, 100, 8)
    add_graph_run(sp, ("--beta", "0"), ("--gamma", "1"))
    sp = sub.add_parser("ldc-beta", help="edge-activity series locality at 1/gamma")
    add_common(sp, 100, 7)
    sp = sub.add_parser("decay", help="gap decay profile on path families")
    add_common(sp)
    add_scalar(sp, "--beta", "0")
    add_scalar(sp, "--gamma", "1")
    add_scalar(sp, "--lambda", "1")
    sp.add_argument("--mode", choices=("ssm", "psm", "msm"), default="ssm")
    sp.add_argument("--kmax", type=int, default=10)
    sp.add_argument("--kmin", type=int, default=1)
    sp = sub.add_parser("roots", help="field-polynomial root scan of one instance")
    add_common(sp)
    add_scalar(sp, "--beta", required=True)
    add_scalar(sp, "--gamma", note=" (default: beta)")
    sp.add_argument("--graph", type=str, required=True)
    sp.add_argument("--pins", type=str, default=None)
    sp = sub.add_parser("annulus", help="pinned root-modulus band checks")
    add_common(sp, 50, 8)
    sp.add_argument("--beta", type=parse_scalar, default="3/2",
                    help="rational p/q; give a negative value as --beta=-p/q")
    add_graph_run(sp)
    sp.add_argument("--degree-bound", type=int, default=3)
    sp = sub.add_parser("region", help="min |Z| table over a field grid")
    add_common(sp, max_vertices=10)
    add_scalar(sp, "--beta", "0")
    add_scalar(sp, "--gamma", "1")
    sp.add_argument("--grid", type=int, default=9, help="grid points per axis")
    sp.add_argument("--span", type=float, default=0.4)
    sp = sub.add_parser("weitz", help="truncated-SAW marginal approximation")
    add_common(sp, 50, 9)
    add_graph_run(sp, ("--beta", "0"), ("--gamma", "1"),
                  ("--lambda", "1, or the graph file's fields"), vertex=True)
    sp.add_argument("--depth", type=int, default=None,
                    help="SAW truncation depth, at least 1 (default: vertex count)")
    sp = sub.add_parser("replay", help="re-execute a dumped failing instance")
    sp.add_argument("dump", type=str)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "replay":
        return replay(args.dump)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
