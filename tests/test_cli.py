import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import detperm as dp
from detperm.cli import _emit_samples, main

from conftest import kernel_from_spectrum, projection_from_rank

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
EXAMPLE_SUITE = SCRIPTS / "example_suite.json"
# stdout of `detperm verify --suite scripts/example_suite.json --seed 4`
EXAMPLE_VERIFY_OUTPUT = Path(__file__).resolve().parent / "data" / "verify_example_seed4.jsonl"
# a weighted complex kernel with eigenvalues within 1e-4 of 0.9, 0.6, 0.3, 0.15, 0.05
GOLDEN_KERNEL = Path(__file__).resolve().parent / "data" / "golden_kernel.json"
# stdout of `detperm <key> --kernel <GOLDEN_KERNEL file>` for each key
GOLDEN_KINDS_OUTPUT = Path(__file__).resolve().parent / "data" / "kinds_golden_kernel.json"
# a 3 x 4 grid with non-unit conductances, and the stdout of
# `detperm ust sample --graph <it> --count 200 --seed 3`
GOLDEN_GRID = Path(__file__).resolve().parent / "data" / "ust_grid_3x4.txt"
GOLDEN_TREES = Path(__file__).resolve().parent / "data" / "ust_grid_3x4_seed3.txt"
# a `clt` suite whose levels repeat no lambda, and the stdout of
# `detperm verify --suite <it> --seed 4`
CLT_LEVELS_SUITE = Path(__file__).resolve().parent / "data" / "clt_levels_suite.json"
CLT_LEVELS_OUTPUT = Path(__file__).resolve().parent / "data" / "clt_levels_seed4.jsonl"
# stdout of `detperm verify --suite scripts/moduli_suite.json --seed 11`
MODULI_OUTPUT = Path(__file__).resolve().parent / "data" / "moduli_suite_seed11.jsonl"


@pytest.fixture
def kernel_file(tmp_path):
    rng = dp.stream(5)
    kernel = kernel_from_spectrum(dp.GroundSet.uniform(3), [0.2, 0.5, 0.9], rng)
    path = tmp_path / "kernel.json"
    kernel.save(path)
    return str(path)


@pytest.fixture
def projection_file(tmp_path):
    rng = dp.stream(6)
    kernel = projection_from_rank(dp.GroundSet.uniform(4), 2, rng)
    path = tmp_path / "projection.json"
    kernel.save(path)
    return str(path)


@pytest.fixture
def bad_kernel_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matrix_real": [[1.2, 0.0], [0.0, 1.2]]}))
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {"terms": [{"k": 0, "lambda": 1.0}, {"k": 1, "lambda": 1.0}],
             "base": "gaussian", "a2": "auto"}
        )
    )
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("a b\nb c\nc d\nd a\n")
    return str(path)


class TestValidateCommand:
    def test_valid_kernel(self, kernel_file, capsys):
        assert main(["validate", "--kernel", kernel_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"valid": True}

    def test_invalid_kernel_exits_one(self, bad_kernel_file, capsys):
        assert main(["validate", "--kernel", bad_kernel_file]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is False
        assert "above 1" in payload["reason"]

    def test_non_hermitian_reported(self, tmp_path, capsys):
        path = tmp_path / "nh.json"
        path.write_text(json.dumps({"matrix_real": [[1.0, 0.4], [0.1, 1.0]]}))
        assert main(["validate", "--kernel", str(path)]) == 1
        assert "Hermitian" in json.loads(capsys.readouterr().out)["reason"]

    def test_nan_kernel_exits_two(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"matrix_real": [[float("nan"), 0.0], [0.0, 0.5]]}))
        assert main(["validate", "--kernel", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "--kernel", "/nonexistent.json"]) == 2


class TestSampleCommand:
    def test_dpp_jsonl_deterministic(self, projection_file, capsys):
        assert main(
            ["sample", "dpp", "--kernel", projection_file, "--count", "5",
             "--seed", "42"]
        ) == 0
        first = capsys.readouterr().out
        lines = [json.loads(line) for line in first.strip().splitlines()]
        assert len(lines) == 5
        assert all(len(rec["points"]) == 2 for rec in lines)
        main(["sample", "dpp", "--kernel", projection_file, "--count", "5",
              "--seed", "42"])
        assert capsys.readouterr().out == first

    def test_jsonl_labels_keep_twelve_digits(self, tmp_path, capsys):
        path = tmp_path / "identity.json"
        path.write_text(json.dumps({"ground": {"labels": [1 / 3, [2 / 3, "x"], 7, "s"],
                                               "weights": [1.0] * 4},
                                    "matrix_real": np.eye(4).tolist()}))
        assert main(["sample", "dpp", "--kernel", str(path), "--count", "1",
                     "--seed", "1", "--format", "jsonl"]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        expected = [0.333333333333, [0.666666666667, "x"], 7, "s"]
        assert sorted(map(json.dumps, points)) == sorted(map(json.dumps, expected))

    def test_jsonl_complex_and_numpy_labels(self, capsys):
        labels = (1 / 3 + 2j / 3, (0.1 + 0.2, 1j / 3), np.float64(2 / 3), np.int64(3))
        config = dp.PointConfiguration((0, 1, 2, 3), simple=True)
        _emit_samples([config], dp.GroundSet(labels, np.ones(4)), "jsonl", sys.stdout)
        assert capsys.readouterr().out == (
            '{"points": [[0.333333333333, 0.666666666667], [0.3, [0.0, 0.333333333333]], '
            '0.666666666667, 3]}\n'
        )

    def test_perm_csv_to_file(self, kernel_file, tmp_path):
        out = tmp_path / "samples.csv"
        assert main(
            ["sample", "perm", "--kernel", kernel_file, "--count", "3",
             "--seed", "1", "--format", "csv", "--out", str(out)]
        ) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_alpha_requires_alpha(self, kernel_file, capsys):
        assert main(
            ["sample", "alpha", "--kernel", kernel_file, "--count", "1", "--seed", "3"]
        ) == 2

    def test_alpha_sampling(self, projection_file, capsys):
        assert main(
            ["sample", "alpha", "--kernel", projection_file, "--alpha", "-0.5",
             "--count", "2", "--seed", "3"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_string_real_kernel_exits_two(self, tmp_path, capsys):
        # "0.5" was once parsed as a number and sampled
        path = tmp_path / "strings.json"
        path.write_text(json.dumps({"matrix_real": [["0.5"]]}))
        assert main(["sample", "dpp", "--kernel", str(path), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'matrix_real' must hold numbers" in captured.err

    @pytest.mark.parametrize("weight", ["2", None, True], ids=["string", "null", "boolean"])
    def test_non_numeric_ground_weight_exits_two(self, weight, tmp_path, capsys):
        # "2" was once parsed as a number and sampled with weight 2.0
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"ground": {"labels": [0], "weights": [weight]},
                                    "matrix_real": [[0.5]]}))
        assert main(["sample", "dpp", "--kernel", str(path), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'weights' must hold numbers" in captured.err

    @pytest.mark.parametrize("ground, message", [
        (5, "'ground' must be an object with a 'labels' list"),
        ({"labels": 5, "weights": [1]}, "'ground' must be an object with a 'labels' list"),
        ({"labels": [{"a": 1}], "weights": [1]}, "a label must be a number, a string or a list"),
        ({"labels": [[0, {"a": 1}]], "weights": [1]},
         "a label must be a number, a string or a list"),
        ({"labels": [0]}, "'ground' has no 'weights' field")],
        ids=["ground-a-number", "labels-a-number", "label-an-object", "nested-label-an-object",
             "no-weights"])
    def test_malformed_ground_exits_two(self, ground, message, tmp_path, capsys):
        # each once ended in a TypeError traceback with exit 1, and a missing
        # field printed only its name
        path = tmp_path / "ground.json"
        path.write_text(json.dumps({"ground": ground, "matrix_real": [[0.5]]}))
        assert main(["sample", "dpp", "--kernel", str(path), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("body, message", [
        (5, "a kernel must be a JSON object, got 5"),
        ("matrix_real", "a kernel must be a JSON object, got 'matrix_real'"),
        ({"matrix_real": [[0.5], [0.5, 0.5]]},
         "'matrix_real' must be a rectangular array, got a ragged list"),
        ({"matrix": [[[0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]},
         "'matrix' must be a rectangular array, got a ragged list"),
        ({"ground": {"labels": [0], "weights": [1, [2]]}, "matrix_real": [[0.5]]},
         "'weights' must be a rectangular array, got a ragged list")],
        ids=["a-number", "a-string", "ragged-matrix-real", "ragged-matrix", "ragged-weights"])
    def test_malformed_kernel_file_is_named(self, body, message, tmp_path, capsys):
        # the first two once ended in a TypeError traceback with exit 1, the
        # ragged lists in numpy's "inhomogeneous shape" with no field named
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps(body))
        assert main(["sample", "dpp", "--kernel", str(path), "--seed", "1"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestCountsCommand:
    def test_dpp_counts(self, kernel_file, capsys):
        assert main(
            ["counts", "--kernel", kernel_file, "--subset", "0,1,2", "--kind", "dpp"]
        ) == 0
        law = json.loads(capsys.readouterr().out)
        exact = dp.bernoulli_sum_pmf([0.2, 0.5, 0.9])
        np.testing.assert_allclose(law["pmf"], exact.pmf, atol=1e-9)

    def test_twelve_significant_digits(self, kernel_file, capsys):
        import re

        main(["counts", "--kernel", kernel_file, "--subset", "0,1,2", "--kind", "dpp"])
        raw = capsys.readouterr().out
        for token in re.findall(r"-?\d+\.?\d*(?:[eE][-+]?\d+)?", raw):
            mantissa = token.split("e")[0].split("E")[0]
            digits = mantissa.replace("-", "").replace(".", "").lstrip("0")
            assert len(digits) <= 12, token

    def test_perm_counts(self, kernel_file, capsys):
        assert main(
            ["counts", "--kernel", kernel_file, "--subset", "0,1", "--kind", "perm",
             "--nmax", "30"]
        ) == 0
        law = json.loads(capsys.readouterr().out)
        assert len(law["pmf"]) == 31

    def test_alpha_counts(self, projection_file, capsys):
        assert main(
            ["counts", "--kernel", projection_file, "--subset", "0,1,2,3",
             "--kind", "alpha", "--alpha", "-0.5"]
        ) == 0
        law = json.loads(capsys.readouterr().out)
        assert abs(sum(law["pmf"]) + law["tail_bound"] - 1.0) < 1e-9

    @pytest.mark.parametrize("subset", ["0,,1", "0,1.5", "0,x"],
                             ids=["empty", "fractional", "not-a-number"])
    def test_malformed_subset_entry_exits_two(self, kernel_file, capsys, subset):
        # each once printed only "invalid literal for int() with base 10"
        assert main(["counts", "--kernel", kernel_file, "--subset", subset, "--kind", "dpp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--subset entry must be an integer >= 0" in captured.err


class TestProcessKinds:
    """The kinds dpp and perm are the alpha-determinantal process at alpha = -1 and +1."""

    def test_outputs_are_pinned(self, capsys):
        for args, expected in json.loads(GOLDEN_KINDS_OUTPUT.read_text()).items():
            assert main(args.split() + ["--kernel", str(GOLDEN_KERNEL)]) == 0, args
            assert capsys.readouterr().out == expected, args

    @pytest.mark.parametrize("kind,alpha", [("dpp", "-1"), ("perm", "1")])
    def test_alpha_minus_and_plus_one_draw_the_kind_stream(self, kind, alpha, capsys):
        tail = ["--kernel", str(GOLDEN_KERNEL), "--count", "20", "--seed", "8"]
        assert main(["sample", kind] + tail) == 0
        expected = capsys.readouterr().out
        assert main(["sample", "alpha", "--alpha", alpha] + tail) == 0
        assert capsys.readouterr().out == expected


# The alpha-process of K exists iff the eigenvalues of |alpha| K lie in [0, 1]
# for alpha = -1/m and in [0, inf) for alpha = 1/m (Shirai and Takahashi 2003).
TABLE_EIGENVALUES = [-0.1, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
TABLE_ALPHAS = [-1.0, -1 / 2, -1 / 3, 1 / 2, 1.0]


def _kind(alpha):
    """The kind of the process of this alpha and the flags that go with it."""
    if alpha in (-1.0, 1.0):
        return ("dpp" if alpha < 0 else "perm"), []
    return "alpha", ["--alpha", repr(alpha)]


class TestAdmissibility:
    """``sample``, ``counts`` and ``validate`` accept a kernel exactly where the
    existence criterion holds, and reject it with one message."""

    @pytest.mark.parametrize("alpha", TABLE_ALPHAS, ids=["-1", "-1/2", "-1/3", "1/2", "1"])
    @pytest.mark.parametrize("lam", TABLE_EIGENVALUES)
    def test_every_command_applies_the_existence_rule(self, tmp_path, capsys, lam, alpha):
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps({"matrix_real": [[lam, 0.0], [0.0, 0.5]]}))
        if lam < 0:
            message = f"eigenvalue {lam!r} below 0"
        elif alpha < 0 and lam > round(-1 / alpha):
            message = f"eigenvalue {lam!r} above {round(-1 / alpha)}"
        else:
            message = None
        kind, flags = _kind(alpha)
        kernel = ["--kernel", str(path)]
        # counts over atom 1 alone, whose block 0.5 is admissible at every alpha
        for argv in (["sample", kind, *flags, *kernel, "--count", "3", "--seed", "1"],
                     ["counts", "--kind", kind, *flags, *kernel, "--subset", "1"]):
            assert main(argv) == (0 if message is None else 2), argv
            captured = capsys.readouterr()
            if message is not None:
                assert (captured.out, captured.err) == ("", f"error: {message}\n"), argv
        if alpha == -1.0:
            assert main(["validate", *kernel]) == (0 if message is None else 1)
            verdict = json.loads(capsys.readouterr().out)
            assert verdict == ({"valid": True} if message is None else
                               {"valid": False, "reason": message, "eigenvalue": lam})

    @pytest.mark.parametrize("subset", ["0", ""], ids=["atom-0", "empty"])
    def test_counts_checks_the_whole_kernel(self, tmp_path, capsys, subset):
        # eigenvalues 1.5 and 0.3; by interlacing the block 0.9 on atom 0 lies
        # in [0, 1], and its law was once printed with exit 0
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps({"matrix_real": [[0.9, 0.6], [0.6, 0.9]]}))
        assert main(["validate", "--kernel", str(path)]) == 1
        reason = json.loads(capsys.readouterr().out)["reason"]
        assert reason.startswith("eigenvalue 1.") and reason.endswith(" above 1")
        assert main(["counts", "--kind", "dpp", "--subset", subset, "--kernel", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {reason}\n")


class TestRadialCommand:
    def test_sample(self, spec_file, capsys):
        assert main(
            ["radial", "sample", "--spec", spec_file, "--count", "4", "--seed", "9"]
        ) == 0
        lines = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 4
        assert all(len(rec["moduli_sq"]) == 2 for rec in lines)

    def test_lambdas(self, spec_file, capsys):
        assert main(
            ["radial", "lambdas", "--spec", spec_file, "--annuli", "0:1,1:2"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert np.array(payload["lambdas"]).shape == (2, 2)

    @pytest.mark.parametrize("entry", ["0", "0:x", "0:1:2"])
    def test_malformed_annulus_is_named(self, spec_file, capsys, entry):
        # "0" once printed "not enough values to unpack", "0:x" a bare float error
        assert main(["radial", "lambdas", "--spec", spec_file, "--annuli", f"0.5:1,{entry}"]) == 2
        assert capsys.readouterr() == (
            "", f"error: --annuli entry {entry!r} must be two numbers lo:hi\n")

    def test_cloud(self, spec_file, tmp_path, capsys):
        out = tmp_path / "cloud.csv"
        assert main(
            ["radial", "cloud", "--spec", spec_file, "--seed", "2",
             "--grid-h", "0.4", "--radius", "3.0", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "process,sample,re,im"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds <= {"poisson", "determinantal", "permanental"}
        assert "determinantal" in kinds

    @pytest.mark.parametrize("terms,a2,action", [
        pytest.param([{"k": 1.5, "lambda": 1.0}], "auto", ["sample"], id="fractional-degree"),
        pytest.param([{"k": True, "lambda": 1.0}], "auto", ["sample"], id="boolean-degree"),
        pytest.param([{"k": 0, "lambda": 1.0}, {"k": 1, "lambda": 1.0}], [1.0], ["sample"],
                     id="short-a2"),
        pytest.param([{"k": 400, "lambda": 1.0}], "auto", ["sample"],
                     id="overflowing-normalizer"),
        pytest.param([{"k": 0, "lambda": None}], "auto", ["sample"], id="null-lambda"),
        pytest.param([{"k": 0, "lambda": 1.0}], [None], ["sample"], id="null-a2"),
        pytest.param({"k": 0, "lambda": 1.0}, "auto", ["sample"], id="terms-not-a-list"),
        pytest.param([5], "auto", ["sample"], id="term-not-an-object"),
        pytest.param([{"k": 0, "lambda": 1.0}], "auto", ["cloud", "--radius", "inf"],
                     id="infinite-radius")])
    def test_malformed_spec_exits_two(self, tmp_path, capsys, terms, a2, action):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"terms": terms, "base": "gaussian", "a2": a2}))
        assert main(["radial", *action, "--spec", str(path), "--seed", "9"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("base", [["gaussian"], {"name": "gaussian"}, 5, None],
                             ids=["list", "object", "number", "null"])
    def test_non_string_base_exits_two(self, tmp_path, capsys, base):
        # a list base once ended in "TypeError: unhashable type" with exit 1
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"terms": [{"k": 0, "lambda": 1.0}], "base": base}))
        assert main(["radial", "sample", "--spec", str(path), "--seed", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'base' must be a string" in captured.err

    @pytest.mark.parametrize("spec, message", [
        pytest.param([], "a radial spec must be a JSON object", id="not-an-object"),
        pytest.param({"terms": [{"k": 0, "lambda": 1.0}]}, "radial spec has no 'base' field",
                     id="no-base"),
        pytest.param({"base": "gaussian"}, "radial spec has no 'terms' field", id="no-terms"),
        pytest.param({"base": "gaussian", "terms": [{"lambda": 1.0}]},
                     "radial spec term 0 has no 'k' field", id="no-degree"),
        pytest.param({"base": "gaussian", "terms": [{"k": 0, "lambda": 1.0}, {"k": 1}]},
                     "radial spec term 1 has no 'lambda' field", id="no-lambda")])
    def test_missing_field_is_named(self, tmp_path, capsys, spec, message):
        # a list once ended in a TypeError traceback with exit 1, and a
        # missing key printed only the key, as in "error: 'base'"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["radial", "sample", "--spec", str(path), "--seed", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


@pytest.mark.parametrize("argv", [["sample", "dpp", "--kernel"], ["radial", "sample", "--spec"],
                                  ["ust", "sample", "--graph"]], ids=["sample", "radial", "ust"])
def test_negative_count_exits_two(argv, kernel_file, spec_file, graph_file, capsys):
    path = {"sample": kernel_file, "radial": spec_file, "ust": graph_file}[argv[0]]
    assert main(argv + [path, "--count", "-2", "--seed", "1"]) == 2
    assert "--count must be an integer >= 0" in capsys.readouterr().err


class TestUstCommand:
    def test_sample_trees(self, graph_file, capsys):
        assert main(
            ["ust", "sample", "--graph", graph_file, "--count", "4", "--seed", "0"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert all(len(line.split()) == 3 for line in lines)

    def test_tree_stream_is_pinned(self, capsys):
        argv = ["ust", "sample", "--graph", str(GOLDEN_GRID), "--count", "200", "--seed", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == GOLDEN_TREES.read_text()

    def test_non_finite_conductance_exits_two(self, tmp_path, capsys):
        path = tmp_path / "inf.txt"
        path.write_text("a b\nb c inf\n")
        assert main(["ust", "sample", "--graph", str(path), "--seed", "0"]) == 2
        assert "conductances must be finite and strictly positive" in capsys.readouterr().err


    def test_unparsable_conductance_names_its_line(self, tmp_path, capsys):
        # once printed only "could not convert string to float: 'x'"
        path = tmp_path / "x.txt"
        path.write_text("a b\n# comment\nb c x\n")
        assert main(["ust", "sample", "--graph", str(path), "--seed", "0"]) == 2
        assert capsys.readouterr() == ("", "error: line 3: conductance 'x' is not a number\n")


class TestVerifyCommand:
    def test_passing_suite(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(
            json.dumps(
                {"checks": [
                    {"type": "categorical", "weights": [1, 1, 2], "samples": 20000}
                ]}
            )
        )
        assert main(["verify", "--suite", str(suite), "--seed", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    def test_failing_suite_exits_one(self, tmp_path, monkeypatch, capsys):
        # a categorical sampler that returns index 0 on a tenth of its draws
        # regardless of the weights fails its frequency check
        from detperm import harness

        draw = harness.sample_categorical

        def mutated(w, rng, size=None):
            draws = draw(w, rng, size=size)
            draws[rng.random(size) < 0.1] = 0
            return draws

        monkeypatch.setattr(harness, "sample_categorical", mutated)
        suite = tmp_path / "suite.json"
        suite.write_text(
            json.dumps(
                {"checks": [
                    {"type": "categorical", "weights": [1, 1, 2], "samples": 20000}
                ]}
            )
        )
        assert main(["verify", "--suite", str(suite), "--seed", "4"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False

    def test_every_line_is_strict_json(self, capsys):
        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        main(["verify", "--suite", str(EXAMPLE_SUITE), "--seed", "4"])
        lines = capsys.readouterr().out.strip().splitlines()
        reports = [json.loads(line, parse_constant=reject) for line in lines]
        assert len(reports) == 9
        assert any(r["p_value"] is None for r in reports)  # the CLT report

    def test_example_suite_output_is_byte_identical(self, capsys):
        # seeded streams, laws and number formatting all show in this output
        assert main(["verify", "--suite", str(EXAMPLE_SUITE), "--seed", "4"]) == 0
        assert capsys.readouterr().out.encode() == EXAMPLE_VERIFY_OUTPUT.read_bytes()

    def test_runtime_loads_no_scipy(self):
        # a fresh `import detperm`, and a `verify` run of the example suite,
        # import no scipy module: every p-value has a closed form
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(EXAMPLE_SUITE.parents[1] / "src"), env.get("PYTHONPATH")]))
        report = "print(sorted(m for m in sys.modules if m.startswith('scipy')), file=sys.stderr)"
        imported = subprocess.run([sys.executable, "-c", f"import sys, detperm; {report}"],
                                  capture_output=True, text=True, env=env, timeout=300)
        assert imported.returncode == 0 and imported.stderr.strip() == "[]"
        cli = ("import atexit, runpy, sys\n"
               f"atexit.register(lambda: {report})\n"
               "runpy.run_module('detperm.cli', run_name='__main__', alter_sys=True)\n")
        verify = subprocess.run(
            [sys.executable, "-c", cli, "verify", "--suite", str(EXAMPLE_SUITE), "--seed", "4"],
            capture_output=True, text=True, env=env, timeout=300)
        assert verify.returncode == 0, verify.stderr
        assert len(verify.stdout.strip().splitlines()) == 9
        assert verify.stderr.strip() == "[]"

    @pytest.mark.parametrize("check", [
        {"type": "kostlan", "n": 2, "samples": 0}, {"type": "gaf", "n": 2, "samples": 0},
        {"type": "clt", "binomial_levels": {"p": 0.5, "sizes": [4, 8, 16]}, "samples": 0},
        {"type": "kostlan", "n": 0}, {"type": "gaf", "n": -2}, {"type": "kostlan", "n": True},
        {"type": "perm_count_law", "kernel": "kernel.json", "nmax": 1.5},
        {"type": "clt", "binomial_levels": {"p": 0.5, "sizes": [4, 8.5, 16]}}])
    def test_malformed_check_parameter_exits_two(self, tmp_path, monkeypatch, capsys, check):
        # exit 1 means a check failed; a suite that cannot run is malformed input
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kernel.json").write_text(json.dumps({"matrix_real": [[0.5]]}))
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"checks": [check]}))
        assert main(["verify", "--suite", str(suite), "--seed", "4"]) == 2
        assert "must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("check", [
        pytest.param({"type": "clt", "binomial_levels": [0.5]}, id="binomial-levels-a-list"),
        pytest.param({"type": "clt", "binomial_levels": {"p": 0.5, "sizes": 5}},
                     id="binomial-sizes-a-number"),
        pytest.param({"type": "clt", "levels": 5}, id="levels-a-number"),
        pytest.param({"type": "clt", "levels": [[0.5], [0.5, 0.5], ["0.5", 0.5, 0.5]],
                      "samples": 100}, id="level-entry-a-string"),
        pytest.param({"type": "dpp_count_law", "kernel": "kernel.json", "subset": 3},
                     id="subset-a-number"),
        pytest.param({"type": "dpp_count_law", "kernel": "kernel.json", "subset": [0.7],
                      "samples": 100}, id="subset-entry-fractional"),
        pytest.param({"type": "categorical", "weights": 5, "samples": 100},
                     id="weights-a-number"),
        pytest.param({"type": "categorical", "weights": ["1", "2"], "samples": 100},
                     id="weight-a-string")])
    def test_malformed_nested_field_exits_two(self, tmp_path, monkeypatch, capsys, check):
        # a field of the wrong JSON shape once ended in a TypeError traceback
        # (exit 1) or was converted and run (exit 0)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kernel.json").write_text(json.dumps({"matrix_real": [[0.5]]}))
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"checks": [check]}))
        assert main(["verify", "--suite", str(suite), "--seed", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("check, message", [
        pytest.param({"type": "clt", "levels": [[0.5, 2.0], [0.5] * 4, [0.5] * 8]},
                     "check parameter 'levels'[0][1] must lie in [0, 1], got 2.0",
                     id="level-entry-above-one"),
        pytest.param({"type": "clt", "levels": [[0.5], [0.5] * 4, [0.5, -0.25, 0.5]]},
                     "check parameter 'levels'[2][1] must lie in [0, 1], got -0.25",
                     id="level-entry-below-zero"),
        pytest.param({"type": "clt", "binomial_levels": {"p": 1.5, "sizes": [4, 8, 16]}},
                     "binomial_levels p must lie in [0, 1], got 1.5", id="binomial-p-above-one"),
        pytest.param({"type": "dpp_count_law", "kernel": 0},
                     "check parameter 'kernel' must be a path string, got 0",
                     id="kernel-an-integer"),
        pytest.param({"type": "perm_count_law", "kernel": None},
                     "check parameter 'kernel' must be a path string, got None", id="kernel-null"),
        pytest.param({"type": "ust_subset_counts", "graph": 0},
                     "check parameter 'graph' must be a path string, got 0",
                     id="graph-an-integer")])
    def test_out_of_range_or_non_path_field_exits_two(self, tmp_path, capsys, check, message):
        # a level entry of 2.0 once exited 2 with "math domain error", p 1.5 with
        # a message on level variances, and "kernel": 0 read the kernel from stdin
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"checks": [check]}))
        assert main(["verify", "--suite", str(suite), "--seed", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("check, message", [
        pytest.param({"type": "categorical", "samples": 100},
                     "categorical check has no 'weights' field", id="no-weights"),
        pytest.param({"type": "clt"}, "clt check has no 'levels' field", id="no-levels"),
        pytest.param({"type": "clt", "binomial_levels": {"sizes": [4, 8, 16]}},
                     "'binomial_levels' has no 'p' field", id="no-binomial-p"),
        pytest.param({"type": "clt", "binomial_levels": {"p": 0.5}},
                     "'binomial_levels' has no 'sizes' field", id="no-binomial-sizes"),
        pytest.param({"type": "perm_count_law"}, "perm_count_law check has no 'kernel' field",
                     id="no-kernel"),
        pytest.param({"type": "ust_subset_counts"},
                     "ust_subset_counts check has no 'graph' field", id="no-graph")])
    def test_missing_field_is_named(self, tmp_path, capsys, check, message):
        # each once printed only the key, as in "error: 'weights'"
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"checks": [check]}))
        assert main(["verify", "--suite", str(suite), "--seed", "4"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_clt_stream_without_repeats_is_pinned(self, capsys):
        # a level that repeats no lambda draws one uniform per indicator
        assert main(["verify", "--suite", str(CLT_LEVELS_SUITE), "--seed", "4"]) == 0
        assert capsys.readouterr().out.encode() == CLT_LEVELS_OUTPUT.read_bytes()

    @pytest.mark.parametrize("text", ["{not json", "[]", '{"checks": [7]}'],
                             ids=["not-json", "suite-not-an-object", "check-not-an-object"])
    def test_malformed_suite_exits_two(self, tmp_path, text):
        suite = tmp_path / "broken.json"
        suite.write_text(text)
        assert main(["verify", "--suite", str(suite), "--seed", "4"]) == 2


class TestPaperRuns:
    """The paper's two experiments are committed inputs to the CLI."""

    def test_fig1_clouds(self, tmp_path):
        spec = SCRIPTS / "fig1_ginibre12.json"
        assert dp.RadialKernelSpec.load(spec) == dp.ginibre_spec(12)
        out = tmp_path / "clouds.csv"
        assert main(["radial", "cloud", "--spec", str(spec), "--grid-h", "0.5",
                     "--radius", "2.5", "--seed", "7", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "process,sample,re,im"
        assert {line.split(",")[0] for line in lines[1:]} == {
            "poisson", "determinantal", "permanental"}

    def test_moduli_suite(self, capsys):
        assert main(["verify", "--suite", str(SCRIPTS / "moduli_suite.json"), "--seed", "11"]) == 0
        assert capsys.readouterr().out.encode() == MODULI_OUTPUT.read_bytes()
