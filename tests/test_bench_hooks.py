"""The traced benchmark run (``bench/tracing.py``) wraps library names from
outside the package: a function per module that looks it up, and methods
of ``TwoTapeAutomaton`` and ``BlockWord``.  A name it wraps that is renamed
or removed must fail here, not only in the traced benchmark smoke."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys

import ratrel

sys.path.insert(0, "bench")
from tracing import WRAPPED, Tracer

Tracer().install(ratrel)
print(len(WRAPPED), "names wrapped")
"""


def test_tracer_finds_every_name_it_wraps():
    # in a fresh process, as install patches the classes for good; -B
    # leaves no bytecode behind
    proc = subprocess.run(
        [sys.executable, "-B", "-c", INSTALL], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("names wrapped\n"), proc.stdout
