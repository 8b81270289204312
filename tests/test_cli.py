import json
import sys
from pathlib import Path

import numpy as np
import pytest

import detperm as dp
from detperm.cli import _emit_samples, main

from conftest import kernel_from_spectrum, projection_from_rank

EXAMPLE_SUITE = Path(__file__).resolve().parents[1] / "scripts" / "example_suite.json"


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


class TestUstCommand:
    def test_sample_trees(self, graph_file, capsys):
        assert main(
            ["ust", "sample", "--graph", graph_file, "--count", "4", "--seed", "0"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert all(len(line.split()) == 3 for line in lines)

    def test_non_finite_conductance_exits_two(self, tmp_path, capsys):
        path = tmp_path / "inf.txt"
        path.write_text("a b\nb c inf\n")
        assert main(["ust", "sample", "--graph", str(path), "--seed", "0"]) == 2
        assert "conductances must be finite and strictly positive" in capsys.readouterr().err


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
        from detperm import core

        draw = core.sample_categorical
        monkeypatch.setattr(core, "sample_categorical",
                            lambda w, rng: 0 if rng.random() < 0.1 else draw(w, rng))
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

    def test_malformed_suite_exits_two(self, tmp_path):
        suite = tmp_path / "broken.json"
        suite.write_text("{not json")
        assert main(["verify", "--suite", str(suite), "--seed", "4"]) == 2
