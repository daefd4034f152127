"""Process start-up: no CLI command imports scipy.

scipy.special and scipy.optimize together cost about 0.6 s of a fresh
process, and no command needs them. The check runs in a fresh interpreter,
because the pytest process itself has long since imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import lanetopo as lt

SRC = Path(lt.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent

SCRIPT = r"""
import sys
from pathlib import Path

import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import lanetopo as lt

assert not scipy_modules(), scipy_modules()
from lanetopo.cli import main

tmp = Path(sys.argv[1])
scene, pred = str(tmp / "scene.json"), str(tmp / "pred.json")
commands = [
    ["synth", "--corridors", "2", "--segments", "2", "--out", scene],
    ["connected", "--scene", scene, "--out", str(tmp / "conn.json")],
    ["predict", "--scene", scene, "--out", pred, "--channels", "16"],
    ["eval", "--pred", pred, "--gt", scene, "--out", str(tmp / "report.json")],
    ["fitdemo", "--scene", scene, "--out", str(tmp / "losses.csv"),
     "--steps", "5", "--max-loss", "10"],
    ["gradcheck", "--instances", "2", "--out", str(tmp / "gradcheck.json")],
]
for argv in commands:
    assert main(argv) == 0, argv
    assert not scipy_modules(), (argv[0], scipy_modules())

# hungarian imports its solver on first use and still solves c02's problems
from oracles import brute_force_assignment

rng = np.random.default_rng(1)
for trial in range(20):
    n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    cost = rng.integers(-5, 6, size=(n, m)).astype(float)
    pairs = lt.hungarian(cost)
    assert len(pairs) == min(n, m)
    assert sum(float(cost[i, j]) for i, j in pairs) == brute_force_assignment(cost)[1]
assert "scipy.optimize" in sys.modules
print("ok")
"""


def test_cli_commands_never_import_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS)])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("ok")

