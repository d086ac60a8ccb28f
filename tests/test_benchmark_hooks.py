"""The benchmark's tracer (`perfbench/spans.py`) patches qkm functions and
methods by name, so a renamed or deleted one breaks the traced runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs_on_every_hooked_name():
    # the tracer patches the library in place: install it in an interpreter
    # of its own
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import spans; "
            "spans.install(spans.Tracer('t'))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
