"""Smoke runs of the experiment scripts, each as a subprocess at small size."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_fig1_clouds(tmp_path):
    out = tmp_path / "clouds.csv"
    proc = run_script("fig1_clouds.py", "--terms", "3", "--grid-h", "0.5",
                      "--radius", "2.5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "process,re,im"
    assert {line.split(",")[0] for line in lines[1:]} == {"poisson", "determinantal", "permanental"}


def test_moduli_experiment():
    proc = run_script("moduli_experiment.py", "--n", "2", "--samples", "500")
    assert proc.returncode == 0, proc.stderr
    assert len([line for line in proc.stdout.splitlines() if line.startswith("[")]) == 4
