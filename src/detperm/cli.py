"""Command-line interface.

Exit codes: 0 success / verdict pass, 1 failed validation or failed
verification checks, 2 malformed input.  All numeric output is decimal
with 12 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import planar
from .alphadet import sample_alpha
from .core import DetpermError, ParameterError, SymmetryError, _encode_label, require_int, stream
from .dpp import count_pmf
from .harness import run_suite
from .kernels import HermitianKernel, KernelVerdict, validate_determinantal
from .ust import Graph, sample_ust


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _dump(obj, out):
    print(json.dumps(_round12(obj), allow_nan=False), file=out)


def _format_label(label):
    if isinstance(label, complex):
        return f"{label.real:.12g}{label.imag:+.12g}j"
    if isinstance(label, float):
        return f"{label:.12g}"
    if isinstance(label, tuple):
        return "(" + " ".join(_format_label(x) for x in label) + ")"
    return str(label)


@contextlib.contextmanager
def _open_out(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _cmd_validate(args):
    try:
        verdict = validate_determinantal(HermitianKernel.load(args.kernel))
    except SymmetryError as exc:  # a verdict, not malformed input
        verdict = KernelVerdict(False, str(exc))
    payload = {"valid": verdict.valid}
    if not verdict.valid:
        payload["reason"] = verdict.reason
        if verdict.eigenvalue is not None:
            payload["eigenvalue"] = verdict.eigenvalue
    _dump(payload, sys.stdout)
    return 0 if verdict.valid else 1


def _emit_samples(configs, ground, fmt, out):
    for config in configs:
        labels = config.labels(ground)
        if fmt == "jsonl":
            _dump({"points": [_encode_label(x) for x in labels]}, out)
        else:
            print(",".join(_format_label(x) for x in labels), file=out)


def _alpha(args):
    """The alpha of the process kind: dpp is alpha = -1, perm is +1, and
    alpha takes --alpha."""
    if args.kind != "alpha":
        return -1.0 if args.kind == "dpp" else 1.0
    if args.alpha is None:
        raise DetpermError("kind 'alpha' requires --alpha")
    return args.alpha


def _cmd_sample(args):
    kernel = HermitianKernel.load(args.kernel)
    rng = stream(args.seed)
    alpha = _alpha(args)
    with _open_out(args.out) as out:
        _emit_samples((sample_alpha(kernel, alpha, rng) for _ in range(args.count)),
                      kernel.ground, args.format, out)
    return 0


def _cmd_counts(args):
    kernel = HermitianKernel.load(args.kernel)
    subset = [require_int(int(s) if s.strip().isdecimal() else s, "--subset entry", 0)
              for s in args.subset.split(",")] if args.subset else []
    _dump(count_pmf(kernel, subset, _alpha(args), args.nmax).to_json(), sys.stdout)
    return 0


def _annulus(entry):
    """The radii (lo, hi) of an --annuli entry "lo:hi"."""
    lo, _, hi = entry.partition(":")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise ParameterError(f"--annuli entry {entry!r} must be two numbers lo:hi") from None


def _cmd_radial(args):
    spec = planar.RadialKernelSpec.load(args.spec)
    if args.action == "sample":
        rng = stream(args.seed)
        with _open_out(args.out) as out:
            for _ in range(args.count):
                _dump({"moduli_sq": planar.sample_radial_moduli(spec, rng)}, out)
        return 0
    if args.action == "lambdas":
        if not args.annuli:
            raise DetpermError("'lambdas' requires --annuli like 0:1,1:2")
        matrix = planar.annuli_lambdas(spec, [_annulus(c) for c in args.annuli.split(",")])
        _dump({"lambdas": [list(row) for row in matrix]}, sys.stdout)
        return 0
    rng = stream(args.seed)
    kernel, clamp = planar.discretize_radial_kernel(spec, args.grid_h, args.radius)
    print(f"# eigenvalue clamp magnitude {clamp:.3e}", file=sys.stderr)
    with _open_out(args.out) as out:
        print("process,sample,re,im", file=out)
        for s in range(args.count):
            for name, config in planar.sample_clouds(kernel, rng).items():
                for z in config.labels(kernel.ground):
                    print(f"{name},{s},{z.real:.12g},{z.imag:.12g}", file=out)
    return 0


def _cmd_ust(args):
    graph = Graph.load(args.graph)
    labels = graph.edge_labels()
    rng = stream(args.seed)
    with _open_out(args.out) as out:
        for _ in range(args.count):
            tree = sample_ust(graph, rng)
            print(" ".join(labels[e] for e in tree), file=out)
    return 0


def _cmd_verify(args):
    with open(args.suite) as fh:
        suite = json.load(fh)
    reports = run_suite(suite, args.seed)
    for report in reports:
        _dump(report.to_json(), sys.stdout)
    return 0 if all(report.passed for report in reports) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="detperm",
        description="Exact sampling and verification for determinantal, "
        "permanental and alpha-determinantal point processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a kernel file for determinantal admissibility")
    p.add_argument("--kernel", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sample", help="draw point configurations")
    p.add_argument("kind", choices=["dpp", "perm", "alpha"])
    p.add_argument("--kernel", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("counts", help="exact count distribution over a subset")
    p.add_argument("--kernel", required=True)
    p.add_argument("--subset", default="")
    p.add_argument("--kind", choices=["dpp", "perm", "alpha"], required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--nmax", type=int, default=80)
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("radial", help="radial kernels: exact moduli, occupancy, clouds")
    p.add_argument("action", choices=["sample", "lambdas", "cloud"])
    p.add_argument("--spec", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--annuli", default=None)
    p.add_argument("--grid-h", type=float, default=0.15)
    p.add_argument("--radius", type=float, default=3.5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_radial)

    p = sub.add_parser("ust", help="random spanning trees")
    p.add_argument("action", choices=["sample"])
    p.add_argument("--graph", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ust)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "count"):
            require_int(args.count, "--count", 0)
        return args.func(args)
    except (DetpermError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
