"""The benchmark's in-process tracer still finds every name it hooks.

``benchmark/inproc.py`` wraps package functions by name and
``benchmark/run.py`` records the chunking constants, so renaming or deleting
one of them breaks the benchmark without failing any other test. This runs
the traced study on one exhaustive and one Monte-Carlo self-test workload.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import elimgame
from elimgame import sweep

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_chunking_constants_exist():
    assert isinstance(sweep.MC_CHUNK, int)
    assert isinstance(sweep.EXHAUSTIVE_OUTER_CHUNK, int)


@pytest.mark.parametrize("workload", ["exh-cb-3x7-tiny", "mc-ic-cb-5x10-tiny"])
def test_traced_study_runs(tmp_path, workload):
    src = str(Path(elimgame.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(BENCHMARK / "inproc.py"), "--workload", workload,
         "--seed", "0", "--trace", "1", "--out", str(tmp_path / workload)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / f"{workload}.stdout").read_text()
