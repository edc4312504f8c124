import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import corpus_config
from spinmix import cli, corpus, mixing, numerics
from spinmix.errors import DrawLimitError, ZeroPartitionError
from spinmix.numerics import ExactComplex
from spinmix.partition import Params


@pytest.fixture
def k2(tmp_path):
    path = tmp_path / "k2.json"
    path.write_text('{"n":2,"edges":[[0,1]]}')
    return path


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# Graph documents with a JSON boolean where an integer belongs, and the
# GraphFormatError message each raises
BOOL_GRAPHS = [
    ('{"n": true, "edges": []}', "graph document needs an integer 'n'"),
    ('{"n": 3, "edges": [[true, 2]]}', "bad edge entry [True, 2]"),
    ('{"n": 1, "edges": [], "fields": [[1, true, 0, 1]]}',
     "bad field entry [1, True, 0, 1]"),
]
BOOL_GRAPH_IDS = ["n", "edge", "field"]


class TestExitCodes:
    def test_passing_corpus_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["cd-check", "--trials", "12", "--seed", "7"], capsys)
        assert code == 0
        assert out.strip().endswith("cd-check pass=12 fail=0 seed=7")

    def test_config_error(self, capsys):
        code, _, err = run_cli(["roots", "--graph", "does-not-exist.json",
                                "--beta", "2/1"], capsys)
        assert code == 2 and "config error" in err

    @pytest.mark.parametrize("graph,message", BOOL_GRAPHS, ids=BOOL_GRAPH_IDS)
    @pytest.mark.parametrize("command", ["ldc", "roots"])
    def test_boolean_graph_integer_is_config_error(self, command, graph, message,
                                                   tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "g.json"
        path.write_text(graph)
        code, out, err = run_cli([command, "--graph", str(path), "--beta", "2"], capsys)
        assert code == 2 and out == ""
        assert err == f"config error: {message}\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_out_of_range_vertex_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        graph = tmp_path / "p3.json"
        graph.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
        code, out, err = run_cli(["weitz", "--graph", str(graph), "--vertex", "99"],
                                 capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == ["config error: vertex 99 out of range 0..2"]
        assert list(tmp_path.iterdir()) == [graph]

    def test_contract_failure_dumps_instance(self, tmp_path, capsys, monkeypatch):
        # exercise the failure path by swapping in an evaluator that flags
        # every instance; the dump must replay against the real evaluator
        monkeypatch.chdir(tmp_path)
        real = cli.EVALUATORS["gutman-check"]

        def always_fail(inst):
            ok, row = real(inst)
            row = dict(row, pass_=False)
            return False, row

        monkeypatch.setitem(cli.EVALUATORS, "gutman-check", always_fail)
        code, out, err = run_cli(["gutman-check", "--trials", "3", "--seed", "5"],
                                 capsys)
        assert code == 1
        assert "gutman-check pass=0 fail=3 seed=5" in out
        dump = Path("gutman-check_failure.json")
        assert dump.exists()
        monkeypatch.setitem(cli.EVALUATORS, "gutman-check", real)
        code, out, _ = run_cli(["replay", str(dump)], capsys)
        assert code == 0 and "replay gutman-check pass=1 fail=0" in out

    def test_replay_malformed_dump(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run_cli(["replay", str(bad)], capsys)
        assert code == 2 and "malformed dump" in err

    def test_vanishing_partition_value_exits_2(self, tmp_path, capsys, monkeypatch):
        # hard-core on one edge: Z = 1 + 2*lambda vanishes at lambda = -1/2
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(["decay", "--beta=0/1", "--gamma=1/1", "--lambda=-1/2",
                                "--mode=msm", "--kmax=3"], capsys)
        assert code == 2
        assert err.startswith("error: ZeroPartitionError: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_decay_gap_below_float_range_exits_0(self, capsys):
        # from k = 815 on the exact gap is nonzero but its float is 0.0, so
        # log_gap comes from the exact value (it was math.log(0.0), exit 2)
        code, out, err = run_cli(["decay", "--mode", "ssm", "--beta", "3/2", "--gamma", "3/2",
                                  "--lambda=-1/2", "--kmin", "814", "--kmax", "900"], capsys)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[-1] == "decay pass=87 fail=0 seed=0"
        rows = [json.loads(line) for line in lines[:-2]]
        assert [r["k"] for r in rows] == list(range(814, 901))
        first, *underflowed = rows
        # k = 814 is subnormal (5e-324, one significant bit): its log_gap is
        # the exact one, not math.log(gap) = -744.44
        (inst,) = mixing.path_decay_instances(814, "ssm", k_min=814)
        params = Params(Fraction(3, 2), Fraction(3, 2), Fraction(-1, 2))
        sq = (mixing.marginal(inst.graph, inst.boundary_a, 0, params)
              - mixing.marginal(inst.graph, inst.boundary_b, 0, params)).abs2()
        exact = (math.log(sq.numerator) - math.log(sq.denominator)) / 2
        assert first["gap"] == 5e-324 and first["log_gap"] == exact
        assert abs(exact + 744.859) < 1e-3
        assert all(r["gap"] == 0.0 and math.isfinite(r["log_gap"]) for r in underflowed)
        assert all(b["log_gap"] < a["log_gap"] for a, b in zip(rows, rows[1:]))

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()


def test_broken_pipe_is_no_config_error(tmp_path, capsys, monkeypatch):
    """A reader that closes stdout early (`| head`) ends the run with
    EXIT_BROKEN_PIPE and nothing on stderr; stdout then points at devnull."""
    target = open(tmp_path / "stdout", "w")

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return target.fileno()

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    code = cli.main(["decay", "--kmax", "3"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BROKEN_PIPE == 141
    assert err == ""
    target.write("not kept")
    target.close()
    assert (tmp_path / "stdout").read_text() == ""


def test_saw_and_weitz_build_only_the_instance_graph(monkeypatch):
    """Evaluating one saw-check or weitz instance builds no Graph: the
    instance graph is the generator's, and the SAW-tree values and structure
    come from walks over it."""
    built = []
    real = cli.Graph.__post_init__

    def counted(self):
        real(self)
        built.append(self)

    monkeypatch.setattr(cli.Graph, "__post_init__", counted)
    rng = random.Random(3)
    for command, trials in (("saw-check", 10), ("weitz", 6)):
        cfg = corpus_config([command])
        for trial in range(trials):
            inst = cli.GENERATORS[command](cfg, rng, trial)
            built.clear()
            try:
                ok, _ = cli.EVALUATORS[command](inst)
            except ZeroPartitionError:
                continue
            assert ok
            assert built == []


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(["cd-check", "--trials", "15", "--seed", "42",
                                  "--out", str(path)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_decay_reports_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(["decay", "--mode", "psm", "--beta", "2/1", "--gamma", "2/1",
                     "--lambda", "3/1", "--kmax", "6", "--out", str(path)], capsys)
        assert a.read_bytes() == b.read_bytes()
        assert (Path(str(a) + ".json").read_bytes()
                == Path(str(b) + ".json").read_bytes())

    def test_json_format_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(["saw-check", "--trials", "6", "--seed", "3",
                     "--out", str(path), "--format", "json"], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestCommands:
    def test_roots_k2(self, k2, tmp_path, capsys):
        out_path = tmp_path / "roots.json"
        code, out, _ = run_cli(["roots", "--graph", str(k2), "--beta", "2/1",
                                "--gamma", "2/1", "--out", str(out_path),
                                "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["roots"]) == 2
        assert all(abs(m - 1.0) < 1e-9 for m in doc["moduli"])

    def test_roots_k2_huge_beta(self, k2, tmp_path, capsys):
        # Z = B lambda^2 + 2 lambda + B at B = 10^400: no coefficient fits a
        # double, but the monic lambda^2 + (2/B) lambda + 1 does, roots near +-i
        out_path = tmp_path / "roots.json"
        code, _, err = run_cli(["roots", "--graph", str(k2), "--beta", f"{10 ** 400}/1",
                                "--out", str(out_path), "--format", "json"], capsys)
        assert code == 0, err
        roots = [complex(*r) for r in json.loads(out_path.read_text())["roots"]]
        assert numerics.match_roots(roots, [-1j, 1j]) < 1e-12

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_roots_out_into_missing_directory(self, k2, tmp_path, capsys, fmt):
        out_path = tmp_path / "not-yet" / f"r.{fmt}"
        code, _, _ = run_cli(["roots", "--graph", str(k2), "--beta", "2/1",
                              "--format", fmt, "--out", str(out_path)], capsys)
        assert code == 0
        assert out_path.is_file()

    def test_ldc_graph_report(self, tmp_path, capsys):
        p2 = tmp_path / "p2.json"
        p2.write_text('{"n":2,"edges":[[0,1]]}')
        code, out, _ = run_cli(["ldc", "--graph", str(p2), "--beta", "0/1",
                                "--gamma", "1/1"], capsys)
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()
                 if line.startswith("{")]
        # both vertices, both pin signs
        assert len(lines) == 4
        assert all(row["satisfied"] for row in lines)

    def test_annulus_single_instance(self, k2, tmp_path, capsys):
        pins = tmp_path / "pins.json"
        pins.write_text('{"pins": {"0": "+"}}')
        code, out, _ = run_cli(["annulus", "--graph", str(k2), "--pins", str(pins),
                                "--beta", "2/1"], capsys)
        assert code == 0 and "annulus pass=1 fail=0" in out

    def test_weitz_single_instance(self, k2, capsys):
        code, out, _ = run_cli(["weitz", "--graph", str(k2), "--beta", "0/1",
                                "--gamma", "1/1", "--lambda", "1/1",
                                "--depth", "5", "--vertex", "0"], capsys)
        assert code == 0
        row = json.loads(out.splitlines()[0])
        assert row["exact"] is True and row["matches_marginal"] is True

    def test_region_table(self, tmp_path, capsys):
        out_path = tmp_path / "region.csv"
        code, _, _ = run_cli(["region", "--grid", "3", "--out", str(out_path)],
                             capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "re,im,min_modulus"
        assert len(lines) == 10

    def test_qspin_seeded(self, capsys):
        code, out, _ = run_cli(["qspin-check", "--trials", "6", "--seed", "2"],
                               capsys)
        assert code == 0 and "pass=6 fail=0" in out

    def test_summary_line_format(self, capsys):
        code, out, _ = run_cli(["ldc-beta", "--trials", "4", "--seed", "9"], capsys)
        assert code == 0
        assert out.strip().splitlines()[-1] == "ldc-beta pass=4 fail=0 seed=9"


def test_replay_with_edited_params_recomputes(tmp_path, capsys):
    # editing the dumped instance changes the recomputed values, and the
    # verdict is re-derived from scratch
    dump = tmp_path / "edit.json"
    base = {"command": "gutman-check", "seed": 0, "trial": 0,
            "instance": {"graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
                         "u": 0, "v": 2, "lambda": {"re": "7/3", "im": "0"}}}
    dump.write_text(json.dumps(base))
    code, out, _ = run_cli(["replay", str(dump)], capsys)
    first = json.loads(out.splitlines()[0])["row"]["lhs"]
    base["instance"]["lambda"] = {"re": "1/2", "im": "0"}
    dump.write_text(json.dumps(base))
    code, out, _ = run_cli(["replay", str(dump)], capsys)
    assert code == 0
    edited = json.loads(out.splitlines()[0])["row"]
    assert edited["pass"] and edited["lhs"] != first
    assert edited["lhs"] == "1/8"


def _outcome(evaluate, inst):
    """(ok, row) of one evaluation, or the type and message of what it raised."""
    try:
        return evaluate(inst)
    except ZeroPartitionError as exc:
        return type(exc), str(exc)


# 2-spin dumps on a path of 3 vertices; the cd-check one is the CI smoke dump,
# and ldc-beta's null gamma ties the edge activities
PATH3 = {"n": 3, "edges": [[0, 1], [1, 2]]}
DUMPS = {
    "cd-check": {"graph": PATH3, "pins": {"pins": {"2": "+"}},
                 "params": {"beta": "2", "gamma": "1/3", "field": "3/2"}, "u": 0, "v": 1},
    "annulus": {"graph": PATH3, "pins": {"pins": {"2": "-"}},
                "beta": {"re": "3/2", "im": "0"}, "degree_bound": 3},
    "ldc": {"graph": PATH3, "pins_a": {"pins": {}}, "pins_b": {"pins": {"2": "+"}},
            "beta": "2", "gamma": "1/3", "v": 0},
    "ldc-beta": {"graph": PATH3, "pins_a": {"pins": {}}, "pins_b": {"pins": {"2": "+"}},
                 "gamma": None, "lambda": "2", "center": "1", "v": 0},
    "weitz": {"graph": PATH3, "pins": {"pins": {}},
              "params": {"beta": "2", "gamma": "1/3", "field": "3/2"}, "v": 0, "depth": 3},
}


class TestWireFormat:
    """Generators hand evaluators typed instances; JSON is the dump/replay
    wire format, and a dumped instance replays to the row the run recorded."""

    @pytest.mark.parametrize("command", sorted(cli.GENERATORS))
    def test_round_trip(self, command):
        cfg = cli._build_parser().parse_args([command, "--max-vertices", "6"])
        rng = random.Random(11)
        evaluate = cli.EVALUATORS[command]
        for trial in range(8):
            inst = cli.GENERATORS[command](cfg, rng, trial)
            wire = json.loads(json.dumps(cli._encode(inst)))
            decoded = cli._decode(command, wire)
            assert decoded.keys() == inst.keys()
            for key in inst:
                assert decoded[key] == inst[key], key
                assert type(decoded[key]) is type(inst[key]), key
            assert _outcome(evaluate, decoded) == _outcome(evaluate, inst)

    def _replay(self, command, inst, tmp_path, capsys):
        path = tmp_path / "dump.json"
        path.write_text(json.dumps({"command": command, "instance": inst}))
        return run_cli(["replay", str(path)], capsys)

    @pytest.mark.parametrize("command", sorted(DUMPS))
    def test_dumps_replay(self, command, tmp_path, capsys):
        code, out, err = self._replay(command, DUMPS[command], tmp_path, capsys)
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == f"replay {command} pass=1 fail=0"

    @pytest.mark.parametrize("spin", ["x", 1, "+-"], ids=["x", "int", "plus-minus"])
    @pytest.mark.parametrize("command,key", [("cd-check", "pins"), ("annulus", "pins"),
                                             ("ldc", "pins_a"), ("ldc", "pins_b")])
    def test_bad_2spin_spin_exits_2(self, command, key, spin, tmp_path, capsys):
        inst = {**DUMPS[command], key: {"pins": {"2": spin}}}
        code, out, err = self._replay(command, inst, tmp_path, capsys)
        assert code == 2 and out == ""
        assert err == f"error: PinningError: bad spin {spin!r} at vertex 2\n"

    @pytest.mark.parametrize("command,inst", [
        ("cd-check", 5),
        ("ldc-beta", {**DUMPS["ldc-beta"], "lambda": [1]}),
        ("cd-check", {**DUMPS["cd-check"], "pins": {"pins": []}}),
        ("annulus", {**DUMPS["annulus"], "beta": [1]}),
    ], ids=["instance-int", "lambda-list", "pins-list", "beta-list"])
    def test_wrong_json_type_is_malformed_dump(self, command, inst, tmp_path, capsys):
        code, out, err = self._replay(command, inst, tmp_path, capsys)
        assert code == 2 and out == ""
        assert err.startswith("malformed dump: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command,key,value", [
        ("cd-check", "u", "1"), ("cd-check", "v", True), ("ldc", "order", "3"),
        ("ldc", "v", None), ("ldc-beta", "order", 2.0), ("weitz", "depth", None),
        ("weitz", "depth", 1.0), ("annulus", "degree_bound", "3"),
    ], ids=["u-str", "v-bool", "order-str", "v-null", "order-float", "depth-null",
            "depth-float", "degree-bound-str"])
    def test_wrong_typed_integer_key_is_malformed_dump(self, command, key, value,
                                                       tmp_path, capsys):
        inst = {**DUMPS[command], key: value}
        code, out, err = self._replay(command, inst, tmp_path, capsys)
        assert code == 2 and out == ""
        assert err == f"malformed dump: expected an integer, got {value!r}\n"

    @pytest.mark.parametrize("command,key", [("ldc", "order"), ("ldc-beta", "order"),
                                             ("annulus", "degree_bound")])
    def test_null_integer_key_means_the_default(self, command, key, tmp_path, capsys):
        inst = {k: v for k, v in DUMPS[command].items() if k != key}
        default = self._replay(command, inst, tmp_path, capsys)
        assert default[0] == 0
        assert self._replay(command, {**inst, key: None}, tmp_path, capsys) == default

    @pytest.mark.parametrize("order", [0, -1])
    @pytest.mark.parametrize("command", ["ldc", "ldc-beta"])
    def test_order_below_one_exits_2(self, command, order, tmp_path, capsys):
        inst = {**DUMPS[command], "order": order}
        code, out, err = self._replay(command, inst, tmp_path, capsys)
        assert code == 2 and out == ""
        assert err == ("error: SeriesDivisionError: denominator is zero through "
                       "the truncation order\n")

    def test_evaluator_type_error_is_not_a_malformed_dump(self, tmp_path, capsys,
                                                          monkeypatch):
        def broken(inst):
            raise TypeError("evaluator bug")
        monkeypatch.setitem(cli.EVALUATORS, "cd-check", broken)
        with pytest.raises(TypeError, match="evaluator bug"):
            self._replay("cd-check", DUMPS["cd-check"], tmp_path, capsys)

    @pytest.mark.parametrize("graph,message", BOOL_GRAPHS, ids=BOOL_GRAPH_IDS)
    def test_boolean_graph_integer_exits_2(self, graph, message, tmp_path, capsys):
        inst = {**DUMPS["cd-check"], "graph": json.loads(graph)}
        code, out, err = self._replay("cd-check", inst, tmp_path, capsys)
        assert code == 2 and out == ""
        assert err == f"error: GraphFormatError: {message}\n"

    def test_self_loop_graph_exits_2(self, tmp_path, capsys):
        inst = {**DUMPS["cd-check"], "graph": {"n": 3, "edges": [[0, 1], [1, 1]]}}
        code, out, err = self._replay("cd-check", inst, tmp_path, capsys)
        assert code == 2 and out == ""
        assert err == "error: GraphFormatError: self-loop at vertex 1\n"

    def test_corpus_path_builds_no_json(self, tmp_path, capsys, monkeypatch):
        # a passing corpus run neither encodes nor decodes an instance
        monkeypatch.chdir(tmp_path)

        def refused(*args):
            raise AssertionError("wire format used on the corpus path")

        for name in ("_encode", "_decode", "_pins", "parse_graph"):
            monkeypatch.setattr(cli, name, refused)
        for name in ("to_json", "from_json"):
            for cls in (cli.Graph, cli.Pinning, cli.Params, cli.QSpinParams, ExactComplex):
                if hasattr(cls, name):
                    monkeypatch.setattr(cls, name, refused)
        for command in sorted(cli.GENERATORS):
            code, _, _ = run_cli([command, "--trials", "6", "--max-vertices", "6",
                                  "--seed", "2"], capsys)
            assert code == 0, command


def test_locality_verdicts_divide_no_series(tmp_path, capsys, monkeypatch, k2):
    # ldc and ldc-beta read each verdict off integer numerators: no series is
    # built or divided, on the corpus path or on a --graph file
    monkeypatch.chdir(tmp_path)

    def refused(*args, **kwargs):
        raise AssertionError("series route used by a locality verdict")

    for module in (mixing, numerics):
        for name in ("series_div", "PowerSeries"):
            monkeypatch.setattr(module, name, refused)
    for argv in (["ldc", "--seed", "1", "--trials", "40"],
                 ["ldc-beta", "--seed", "3", "--trials", "40"],
                 ["ldc", "--graph", str(k2), "--beta", "3/2", "--gamma", "2/3"]):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and " fail=0 " in out.splitlines()[-1], argv


# Reports recorded when the generators still ran the evaluator as a rejection
# filter; each corpus draws at least one candidate whose partition value
# vanishes, so the redraw path is exercised. (argv, seed, redrawn candidates,
# SHA-256 of the report for 40 trials)
REDRAW_CORPORA = [
    (["saw-check", "--max-vertices", "7"], 6, 1,
     "ccacbae81d9319c05a6287432ed2be89fe1751f911c31a71940b4d4ab546afea"),
    (["weitz", "--max-vertices", "7"], 1, 2,
     "11e77ef2f5837205370df4a43549d4a1e20988b3d2ec09ad9cff5456aae976a1"),
    (["weitz", "--depth", "4"], 11, 2,
     "6e8d2b5d43e7135ff211a7ae17a368107af62bd7be7d5e74595cab9d101f2f07"),
    (["ldc-beta"], 10, 2,
     "6b24012bcc477b7862d31ee2d860678b7c4cb68515bc996a8288f55196a11576"),
]
REDRAW_IDS = ["saw-check-7", "weitz-7", "weitz-depth-4", "ldc-beta"]
# seeded locality reports: ldc seed 1 draws a complex beta in 7 of its trials
LOCALITY_CORPORA = [
    ("ldc", 1, "76134c5689d473802e5685435a21c50e569670ad65465233ad053137020990d7"),
    ("ldc-beta", 3, "a4aad1e758b156f11ea4759c9a83fcb914618a4fcee91e11a9748e8234f6c277"),
]


@pytest.mark.parametrize("command,seed,digest", LOCALITY_CORPORA,
                         ids=[c for c, _, _ in LOCALITY_CORPORA])
def test_locality_report_digest(command, seed, digest, tmp_path, capsys):
    report = tmp_path / "report.csv"
    code, out, _ = run_cli([command, "--trials", "40", "--seed", str(seed),
                            "--out", str(report)], capsys)
    assert code == 0
    assert out.strip().endswith(f"{command} pass=40 fail=0 seed={seed}")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


# seeded tree-identity reports, recorded before the corpus draws decided
# connectivity on edge bits and built scalars without Fraction:
# (argv, seed, SHA-256 of the report for 100 trials)
TREE_CORPORA = [
    (["cd-check"], 7, "406d4dccf4cfbfc1c5d483ebe4ab754ddd13250377fab0f4404aa870c40fff74"),
    (["gutman-check"], 1, "caf7dd53831f85fb01e1f5cfb3b1b3b96b34d04d9fb020b722081669b53e8da0"),
    (["qspin-check", "--q", "2"], 1,
     "fa60c57e298bf04ab28aec079de584eb6c72e77dc025fdc6590045d6bfeec730"),
    (["qspin-check", "--q", "3"], 1,
     "a56556c4a87e38a2a014a4b561e2d45fa0f299ad61f1d2aedc25767ba36568e2"),
]


@pytest.mark.parametrize("argv,seed,digest", TREE_CORPORA,
                         ids=["cd-check", "gutman-check", "qspin-check-2", "qspin-check-3"])
def test_tree_report_digest(argv, seed, digest, tmp_path, capsys):
    report = tmp_path / "report.csv"
    code, out, _ = run_cli([*argv, "--trials", "100", "--seed", str(seed),
                            "--out", str(report)], capsys)
    assert code == 0
    assert out.strip().endswith(f"{argv[0]} pass=100 fail=0 seed={seed}")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


class TestRedrawCorpora:
    @pytest.mark.parametrize("argv,seed,redraws,digest", REDRAW_CORPORA, ids=REDRAW_IDS)
    def test_report_digest(self, argv, seed, redraws, digest, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code, out, _ = run_cli([*argv, "--trials", "40", "--seed", str(seed),
                                "--out", str(report)], capsys)
        assert code == 0
        assert out.strip().endswith(f"{argv[0]} pass=40 fail=0 seed={seed}")
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv,seed,redraws,digest", REDRAW_CORPORA, ids=REDRAW_IDS)
    def test_each_candidate_evaluated_once(self, argv, seed, redraws, digest,
                                           capsys, monkeypatch):
        command = argv[0]
        drawn, evaluated = [], []
        in_generator = [False]
        evals_in_generator = []

        def counted_gen(gen):
            def wrapped(cfg, rng, trial):
                in_generator[0] = True
                try:
                    inst = gen(cfg, rng, trial)
                finally:
                    in_generator[0] = False
                drawn.append(inst)
                return inst
            return wrapped

        def counted_eval(evaluate):
            def wrapped(inst):
                evaluated.append(inst)
                return evaluate(inst)
            return wrapped

        def watched(name, fn):
            def wrapped(*args, **kwargs):
                if in_generator[0]:
                    evals_in_generator.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("marginal", "saw_tree_marginal", "weitz_approx_marginal",
                     "marginal_series_beta"):
            monkeypatch.setattr(mixing, name, watched(name, getattr(mixing, name)))
        for name in ("marginal", "verify_saw_marginal", "weitz_approx_marginal",
                     "ldc_report_beta", "eval_saw", "eval_weitz", "eval_ldc_beta"):
            monkeypatch.setattr(cli, name, watched(name, getattr(cli, name)))
        monkeypatch.setitem(cli.GENERATORS, command, counted_gen(cli.GENERATORS[command]))
        monkeypatch.setitem(cli.EVALUATORS, command, counted_eval(cli.EVALUATORS[command]))
        code, _, _ = run_cli([*argv, "--trials", "40", "--seed", str(seed)], capsys)
        assert code == 0
        assert evals_in_generator == []
        assert len(drawn) == 40 + redraws
        assert len(evaluated) == len(drawn)
        assert all(a is b for a, b in zip(drawn, evaluated))


class TestExitTwo:
    def test_weitz_depth_zero_corpus(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["weitz", "--depth", "0", "--trials", "3"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error: ") and "depth" in err
        assert list(tmp_path.iterdir()) == []

    def test_weitz_depth_zero_graph_file(self, k2, capsys):
        code, out, err = run_cli(["weitz", "--graph", str(k2), "--depth", "0"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error: ")

    def test_replay_vanishing_partition_value(self, tmp_path, capsys):
        # hard-core on one edge: Z = 1 + 2*lambda vanishes at lambda = -1/2
        dump = tmp_path / "weitz.json"
        dump.write_text(json.dumps({
            "command": "weitz",
            "instance": {"graph": {"n": 2, "edges": [[0, 1]]}, "pins": {"pins": {}},
                         "params": {"beta": "0", "gamma": "1", "field": "-1/2"},
                         "v": 0, "depth": 2}}))
        code, out, err = run_cli(["replay", str(dump)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ZeroPartitionError: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_replay_depth_zero(self, tmp_path, capsys):
        dump = tmp_path / "weitz.json"
        dump.write_text(json.dumps({
            "command": "weitz",
            "instance": {"graph": {"n": 2, "edges": [[0, 1]]}, "pins": {"pins": {}},
                         "params": {"beta": "0", "gamma": "1", "field": "1"},
                         "v": 0, "depth": 0}}))
        code, _, err = run_cli(["replay", str(dump)], capsys)
        assert code == 2 and err.startswith("error: ValueError: ")

    def test_replay_instance_missing_a_key(self, tmp_path, capsys):
        dump = tmp_path / "weitz.json"
        dump.write_text(json.dumps({"command": "weitz",
                                    "instance": {"graph": {"n": 2, "edges": [[0, 1]]}}}))
        code, out, err = run_cli(["replay", str(dump)], capsys)
        assert code == 2 and out == ""
        assert err == "malformed dump: instance lacks 'pins'\n"

    @pytest.mark.parametrize("command", ["cd-check", "ldc"])
    def test_vanishing_value_without_redraw(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # only the first candidate vanishes, so a redraw would go on and pass
        draws = []
        gen, evaluate = cli.GENERATORS[command], cli.EVALUATORS[command]

        def counted(cfg, rng, trial):
            draws.append(trial)
            return gen(cfg, rng, trial)

        def vanishing(inst):
            if len(draws) == 1:
                raise ZeroPartitionError("partition value is zero")
            return evaluate(inst)

        monkeypatch.setitem(cli.GENERATORS, command, counted)
        monkeypatch.setitem(cli.EVALUATORS, command, vanishing)
        code, out, err = run_cli([command, "--trials", "5"], capsys)
        assert code == 2 and out == ""
        assert err == "error: ZeroPartitionError: partition value is zero\n"
        assert draws == [0]
        assert list(tmp_path.iterdir()) == []


class TestDrawLimit:
    """Every draw loop is bounded; reaching a bound exits 2 with one line."""

    def test_always_vanishing_evaluator_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        draws = []
        gen = cli.GENERATORS["saw-check"]

        def counted(cfg, rng, trial):
            draws.append(trial)
            return gen(cfg, rng, trial)

        def vanishing(inst):
            raise ZeroPartitionError("partition value is zero")

        monkeypatch.setitem(cli.GENERATORS, "saw-check", counted)
        monkeypatch.setitem(cli.EVALUATORS, "saw-check", vanishing)
        code, out, err = run_cli(["saw-check", "--trials", "3"], capsys)
        assert code == 2 and out == ""
        assert err == (f"error: DrawLimitError: trial 0: the partition value vanished "
                       f"on {corpus.DRAW_LIMIT} drawn candidates\n")
        assert draws == [0] * corpus.DRAW_LIMIT
        assert list(tmp_path.iterdir()) == []

    def test_no_proper_vertex_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "is_proper", lambda *args: False)
        code, out, err = run_cli(["weitz", "--trials", "2"], capsys)
        assert code == 2 and out == ""
        assert err == (f"error: DrawLimitError: no vertex proper to the pinning "
                       f"in {corpus.DRAW_LIMIT} draws\n")

    def test_corpus_rejection_loops_are_bounded(self):
        class ZeroStream(random.Random):
            """Draws 0 wherever it may (and 1 for a denominator), so every
            fraction and scalar is 0."""

            def randint(self, a, b):
                return 0 if a <= 0 <= b else a

            def random(self):
                return 0.0

        for draw in (lambda rng: corpus.rand_scalar(rng, nonzero=True),
                     lambda rng: corpus._nontrivial_edge_pair(rng, 0.5)):
            with pytest.raises(DrawLimitError):
                draw(ZeroStream())


class TestGraphFailureDump:
    def test_weitz_graph_failure_dumps_and_replays(self, k2, tmp_path, capsys,
                                                   monkeypatch):
        # a wrong "true" marginal makes the full-depth comparison fail
        monkeypatch.setattr(cli, "marginal", lambda *args: ExactComplex(2))
        report = tmp_path / "weitz.csv"
        code, out, err = run_cli(["weitz", "--graph", str(k2), "--beta", "0/1",
                                  "--out", str(report)], capsys)
        assert code == 1
        assert out == "weitz pass=0 fail=1 seed=0\n"
        dump = tmp_path / "weitz_failure.json"
        assert dump.exists() and report.exists()
        assert err == f"first failing instance dumped to {dump}\n"
        code, out, _ = run_cli(["replay", str(dump)], capsys)
        assert code == 1 and "replay weitz pass=0 fail=1" in out

    def test_ldc_graph_failure_names_the_dump(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        real = cli.eval_ldc

        def failing(inst):
            ok, row = real(inst)
            return False, row

        monkeypatch.setattr(cli, "eval_ldc", failing)
        graph = tmp_path / "p3.json"
        graph.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
        code, out, err = run_cli(["ldc", "--graph", str(graph)], capsys)
        assert code == 1
        rows = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        assert len(rows) == 12
        assert out.splitlines()[-1] == "ldc pass=0 fail=12 seed=0"
        assert err == "first failing instance dumped to ldc_failure.json\n"
        assert Path("ldc_failure.json").exists()


class TestGraphRuns:
    """What a --graph run of ldc and annulus evaluates and prints."""

    @pytest.fixture
    def p3(self, tmp_path):
        path = tmp_path / "p3.json"
        path.write_text('{"n":3,"edges":[[0,1],[1,2]]}')
        return path

    def test_ldc_skips_infeasible_extensions(self, p3, tmp_path, capsys):
        # at beta = 0 the sweep's own pin + next to the + pin at 0 is
        # infeasible, and is skipped as the corpus never draws it
        pins = tmp_path / "pin0.json"
        pins.write_text('{"pins":{"0":"+"}}')
        code, out, err = run_cli(["ldc", "--graph", str(p3), "--pins", str(pins)], capsys)
        assert code == 0 and err == ""
        lines = out.splitlines()
        rows = [json.loads(line) for line in lines[:-1]]
        assert [(r["v"], r["u"], r["pin"]) for r in rows] == [(1, 2, "+"), (1, 2, "-"),
                                                             (2, 1, "-")]
        assert lines[-1] == "ldc pass=3 fail=0 seed=0"
        # at beta = 1 every extension is feasible
        code, out, _ = run_cli(["ldc", "--graph", str(p3), "--pins", str(pins),
                                "--beta", "1/1"], capsys)
        assert code == 0 and out.splitlines()[-1] == "ldc pass=4 fail=0 seed=0"

    def test_ldc_infeasible_pins_file_stays_an_error(self, tmp_path, capsys, monkeypatch):
        # the pinning's partition polynomial vanishes, also on the 3-vertex
        # path, where the pins leave no free (v, u) pair to sweep
        monkeypatch.chdir(tmp_path)
        pins = tmp_path / "pins.json"
        pins.write_text('{"pins":{"0":"+","1":"+"}}')
        for n in (4, 3):
            graph = tmp_path / f"p{n}.json"
            edges = ",".join(f"[{i},{i + 1}]" for i in range(n - 1))
            graph.write_text(f'{{"n":{n},"edges":[{edges}]}}')
            code, out, err = run_cli(["ldc", "--graph", str(graph), "--pins", str(pins)], capsys)
            assert code == 2 and out == "", n
            assert err == "error: ZeroPartitionError: partition polynomial is identically zero\n"
            graph.unlink()
            assert sorted(tmp_path.iterdir()) == [pins]

    def test_annulus_prints_its_row_without_out(self, k2, tmp_path, capsys):
        code, out, _ = run_cli(["annulus", "--graph", str(k2)], capsys)
        row, summary = out.splitlines()
        assert code == 0 and summary == "annulus pass=1 fail=0 seed=0"
        row = json.loads(row)
        assert row["violations"] == 0 and row["cross_check_mismatch"] == 0.0 and row["pass"]
        report = tmp_path / "annulus.json"
        code, out, _ = run_cli(["annulus", "--graph", str(k2), "--out", str(report),
                                "--format", "json"], capsys)
        assert code == 0 and out == f"{summary}\n"
        assert json.loads(report.read_text()) == [row]


class TestUsageErrors:
    """A malformed scalar, or roots without --beta, is an argparse usage error."""

    @pytest.mark.parametrize("argv,flag", [
        (["ldc", "--beta", "foo"], "--beta"),
        (["ldc", "--beta=1/0"], "--beta"),
        (["decay", "--lambda=x"], "--lambda"),
        (["annulus", "--beta", "foo"], "--beta"),
        (["roots", "--graph", "K2"], "--beta"),
    ], ids=["ldc-beta-foo", "ldc-beta-zero-denominator", "decay-lambda-x", "annulus-beta-foo",
            "roots-no-beta"])
    def test_exits_2_naming_the_flag(self, argv, flag, k2, tmp_path, capsys,
                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = [str(k2) if a == "K2" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert any(line.startswith(f"spinmix {argv[0]}: error: ") and flag in line
                   for line in err.splitlines())
        assert list(tmp_path.iterdir()) == [k2]


    @pytest.mark.parametrize("argv", [["decay", "--kmax", "4"],
                                      ["roots", "--graph", "K2", "--beta", "2/1"]],
                             ids=["decay", "roots"])
    def test_max_vertices_is_not_a_flag_of(self, argv, k2, tmp_path, capsys, monkeypatch):
        # neither command builds a corpus, so neither has a vertex bound to read
        monkeypatch.chdir(tmp_path)
        argv = [str(k2) if a == "K2" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--max-vertices", "5"])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --max-vertices 5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [k2]

    @pytest.mark.parametrize("argv", [["decay", "--kmax", "4"],
                                      ["roots", "--graph", "K2", "--beta", "2/1"],
                                      ["region", "--grid", "3"]],
                             ids=["decay", "roots", "region"])
    def test_trials_is_not_a_flag_of(self, argv, k2, tmp_path, capsys, monkeypatch):
        # only corpus commands draw trials; these keep --seed for their summary line
        monkeypatch.chdir(tmp_path)
        argv = [str(k2) if a == "K2" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--trials", "3"])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --trials 3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [k2]
        code, out, _ = run_cli([*argv, "--seed", "4"], capsys)
        assert code == 0 and out.endswith(" fail=0 seed=4\n")

    @pytest.mark.parametrize("argv", [["ldc", "--trials", "3"],
                                      ["roots", "--graph", "K2", "--beta", "2/1"],
                                      ["region", "--grid", "3"]],
                             ids=["ldc", "roots", "region"])
    def test_lambda_is_not_a_flag_of(self, argv, k2, tmp_path, capsys, monkeypatch):
        # none of these runs reads a field activity
        monkeypatch.chdir(tmp_path)
        argv = [str(k2) if a == "K2" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--lambda", "2"])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --lambda 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [k2]

    @pytest.mark.parametrize("argv", [
        ["ldc", "--beta", "7/2", "--gamma", "5/3"], ["ldc", "--pins", "K2"],
        ["annulus", "--pins", "/nonexistent"],
        ["weitz", "--beta", "2"], ["weitz", "--gamma", "2"], ["weitz", "--lambda", "2"],
        ["weitz", "--vertex", "0"], ["weitz", "--pins", "K2"]])
    def test_graph_only_flag_in_a_corpus_run_is_config_error(self, argv, k2, tmp_path,
                                                              capsys, monkeypatch):
        # a seeded corpus draws its own scalars, pins and vertex, so it would
        # not read the flag
        monkeypatch.chdir(tmp_path)
        argv = [str(k2) if a == "K2" else a for a in argv]
        code, out, err = run_cli([*argv, "--trials", "2", "--out", "r.csv"], capsys)
        flags = ", ".join(a for a in argv[1::2])
        assert code == 2 and out == ""
        assert err.splitlines() == [f"config error: only --graph runs read {flags}; "
                                    f"a seeded {argv[0]} corpus draws its own"]
        assert list(tmp_path.iterdir()) == [k2]

    @pytest.mark.parametrize("argv", [["ldc", "--beta", "0", "--gamma", "1"],
                                      ["weitz", "--beta", "0", "--gamma", "1", "--lambda", "1",
                                       "--vertex", "0"]], ids=["ldc", "weitz"])
    def test_graph_run_defaults_are_the_documented_ones(self, argv, tmp_path, capsys):
        graph = tmp_path / "c4.json"
        graph.write_text('{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}')
        reports = []
        for args in (argv[:1], argv):
            report = tmp_path / f"r{len(reports)}.csv"
            code, _, _ = run_cli([*args, "--graph", str(graph), "--out", str(report)], capsys)
            assert code == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command", ["ldc", "annulus", "weitz"])
    @pytest.mark.parametrize("flags", [["--trials", "7"], ["--max-vertices", "3"],
                                       ["--trials", "7", "--max-vertices", "3"],
                                       ["--max-vertices", "1"]],
                             ids=["trials", "max-vertices", "both", "max-vertices-1"])
    def test_corpus_flag_in_a_graph_run_is_config_error(self, command, flags, k2, tmp_path,
                                                        capsys, monkeypatch):
        # a --graph run evaluates its one graph, so it would not read the flag
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli([command, "--graph", str(k2), *flags, "--out", "t.csv"],
                                 capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"config error: only seeded corpus runs read "
                                    f"{', '.join(flags[::2])}; a --graph {command} run "
                                    f"reads one graph file"]
        assert list(tmp_path.iterdir()) == [k2]

    @pytest.mark.parametrize("argv", [["ldc", "--trials", "100", "--max-vertices", "8"],
                                      ["annulus", "--trials", "50", "--max-vertices", "8"],
                                      ["weitz", "--trials", "50", "--max-vertices", "9"]],
                             ids=["ldc", "annulus", "weitz"])
    def test_corpus_run_defaults_are_the_documented_ones(self, argv, tmp_path, capsys):
        reports = []
        for args in (argv[:1], argv):
            report = tmp_path / f"r{len(reports)}.csv"
            code, _, _ = run_cli([*args, "--seed", "2", "--out", str(report)], capsys)
            assert code == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]


# Exact-valued single-file reports, recorded before the parsed arguments
# became the run configuration: (graph, pins, argv, SHA-256 of the CSV report)
P4_FIELDS = ('{"n":4,"edges":[[0,1],[1,2],[2,3]],'
             '"fields":[[1,2,0,1],[3,1,0,1],[2,1,1,3],[1,1,0,1]]}')
P4 = '{"n":4,"edges":[[0,1],[1,2],[2,3]]}'
GRAPH_REPORTS = [
    (P4_FIELDS, '{"pins": {"3": "+"}}', ["ldc", "--beta=1/2,1/3"],
     "1affa28f97e12ecc9dee17da107fb76510f7a6b504ba8a3cd2f8a3391b556bdb"),
    (P4_FIELDS, None, ["weitz", "--depth", "2", "--vertex", "1"],
     "b28b3e4a8d6cc942872b629aa69d88e95b76a8d5e9da9e8b5363e6f78ab01191"),
    (P4, None, ["weitz", "--lambda=-1/3,1/2"],
     "706ae1942a7fd31962d3b5df232bc055688b3148f2c1d887959f73e1edf8f228"),
]


@pytest.mark.parametrize("graph,pins,argv,digest", GRAPH_REPORTS,
                         ids=["ldc-fields-pins-complex", "weitz-fields-depth-2",
                              "weitz-complex-lambda"])
def test_graph_report_digest(graph, pins, argv, digest, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(graph)
    extra = ["--graph", str(path)]
    if pins is not None:
        (tmp_path / "pins.json").write_text(pins)
        extra += ["--pins", str(tmp_path / "pins.json")]
    report = tmp_path / "report.csv"
    code, out, _ = run_cli([*argv, *extra, "--out", str(report)], capsys)
    assert code == 0 and out.endswith(" fail=0 seed=0\n")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


# SHA-256 of the CSV reports of 40 annulus trials at seed 0, recorded while
# the pin-elimination route still ran its own root solve and every rejected
# draw built a Graph: (degree bound, SHA-256)
ANNULUS_REPORTS = [
    ("3", "fdbb7905a2eeae5a45b9cab7fbb7a6d1f8f87632db844482bed0857f366e8bb0"),
    ("4", "57c5391259d0b15ca7ec264d8f1a8cd39a72096660d20dd74e91d04ebfd4960d"),
]


@pytest.mark.parametrize("bound,digest", ANNULUS_REPORTS, ids=["degree-3", "degree-4"])
def test_annulus_report_digest(bound, digest, tmp_path, capsys):
    report = tmp_path / "report.csv"
    code, out, _ = run_cli(["annulus", "--trials", "40", "--degree-bound", bound,
                            "--max-vertices", "9", "--out", str(report)], capsys)
    assert code == 0 and out.endswith("annulus pass=40 fail=0 seed=0\n")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv,message", [
    (["--degree-bound", "0"], "no connected graph on 3 vertices has maximum degree <= 0"),
    (["--degree-bound", "1"], "no connected graph on 3 vertices has maximum degree <= 1"),
    (["--max-vertices", "1"], "--max-vertices must be at least 2, got 1"),
], ids=["degree-bound-0", "degree-bound-1", "max-vertices-1"])
def test_unsatisfiable_annulus_corpus_exits_2(argv, message, tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["annulus", "--trials", "2", "--seed", "1", *argv], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["cd-check", "gutman-check", "qspin-check", "saw-check",
                                     "weitz", "ldc", "ldc-beta", "annulus"])
@pytest.mark.parametrize("value", ["-1", "-7"])
def test_negative_trials_exits_2(command, value, tmp_path, capsys, monkeypatch):
    # a negative count was an empty corpus: "pass=0 fail=0" and exit 0
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli([command, "--trials", value], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: --trials must be at least 0, got {value}\n"
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run_cli([command, "--trials", "0"], capsys)
    assert code == 0 and out == f"{command} pass=0 fail=0 seed=0\n"


@pytest.mark.parametrize("command", ["cd-check", "gutman-check", "qspin-check", "saw-check",
                                     "weitz", "ldc", "ldc-beta", "annulus", "region"])
@pytest.mark.parametrize("value", ["1", "0", "-3"])
def test_max_vertices_below_two_exits_2(command, value, tmp_path, capsys, monkeypatch):
    # a value below 2 was an empty randrange range, a silent default (0) or,
    # for region, rows of infinite modulus
    monkeypatch.chdir(tmp_path)
    trials = [] if command == "region" else ["--trials", "1"]
    code, out, err = run_cli([command, *trials, "--max-vertices", value], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: --max-vertices must be at least 2, got {value}\n"
    assert list(tmp_path.iterdir()) == []



@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_region_non_finite_span_exits_2(value, tmp_path, capsys, monkeypatch):
    # a non-finite span printed NaN rows, which are no JSON, and exited 0
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["region", "--grid", "3", f"--span={value}"], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: --span must be finite, got {float(value)}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["0", "-2"])
def test_region_grid_below_one_exits_2(value, tmp_path, capsys, monkeypatch):
    # a grid below 1 printed no rows and exited 0
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["region", "--grid", value], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: --grid must be at least 1, got {value}\n"
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run_cli(["region", "--grid", "1", "--max-vertices", "3"], capsys)
    rows = [json.loads(line) for line in out.splitlines()[:-1]]
    assert code == 0 and rows == [{"im": 0.0, "min_modulus": 1.0, "re": 0.0}]


@pytest.mark.parametrize("span,grid", [("1e308", "2"), ("5e307", "3")])
def test_region_overflowing_span_exits_2(span, grid, tmp_path, capsys, monkeypatch):
    # a finite span whose grid formula overflows, 2 * span * i at i = grid - 1,
    # printed NaN and Infinity cells and exited 0
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["region", "--grid", grid, "--span", span,
                              "--out", "region.csv"], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: --span {float(span)} overflows a grid of side {grid}\n"
    assert list(tmp_path.iterdir()) == []


def test_region_grid_of_side_1_never_reads_the_span(capsys):
    # the one cell is 0, so a span whose doubling overflows is still accepted
    code, out, _ = run_cli(["region", "--grid", "1", "--span", "1e308",
                            "--max-vertices", "3"], capsys)
    rows = [json.loads(line) for line in out.splitlines()[:-1]]
    assert code == 0 and rows == [{"im": 0.0, "min_modulus": 1.0, "re": 0.0}]


@pytest.mark.parametrize("argv,message", [
    (["--kmax", "0"], "--kmax 0 is below kmin 2 (--kmin 1 is raised to 2 at beta = 0)"),
    (["--kmin", "5", "--kmax", "2"], "--kmax 2 is below kmin 5"),
    (["--kmin", "1", "--kmax", "1"], "--kmax 1 is below kmin 2 (--kmin 1 is raised to 2 at beta = 0)"),
    (["--beta", "2", "--kmax", "-3"], "--kmax -3 is below kmin 1"),
], ids=["kmax-0", "kmin-5-kmax-2", "kmin-1-kmax-1", "kmax-negative"])
def test_decay_kmax_below_kmin_exits_2(argv, message, tmp_path, capsys, monkeypatch):
    # an empty distance range wrote an empty report with a null rate and exited 0
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["decay", *argv, "--out", "decay.csv"], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,digest", [
    (["region", "--grid", "3"], "c609c144cd37ee16ce99a70878a366378a45fafef9eb605efae3af4d4093e2d4"),
    (["decay", "--kmax", "3"], "0f3ed0d52a0b945f299fcaeb54f41db11158087abae22fcc90a134e7356039b9"),
], ids=["region", "decay"])
def test_range_checks_keep_valid_reports(argv, digest, capsys):
    # the SHA-256 of each report's stdout before the span and kmax checks
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
