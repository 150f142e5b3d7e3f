"""The working set of one vet stays bounded, phase by phase.

A big addon's vet holds the fixpoint's per-(statement, context) states
and then the PDG's reaching definitions over the same nodes, so each
phase's traced-memory peak (``repro.perf.phase_peaks``) is what limits
how many vets one box can run. Each vet runs in a fresh interpreter
with a fixed hash seed: the analysis keeps process-wide intern tables,
and a measurement that depended on what earlier tests left in them
would not be repeatable. Readings (MB, P1/P2/P3) on CPython 3.11 and
3.12:

- flat32: 5.26/4.78/4.01 and 5.23/4.72/3.96;
- chain32: 3.25/2.68/2.56 and 3.37/2.75/2.63.

Each bound sits ~0.2 MB above both, and below the readings of the
representation before per-statement records had ``__slots__``, the
merge memo keyed on its nodes and the DDG stopped storing per-node
masks (flat32 6.09/5.76/4.38 and 5.97/5.60/4.23; chain32 3.83/3.19/2.83
and 3.92/3.24/2.88).
"""

import json
import subprocess
import sys

import pytest

from tests.service.stdio_daemon import source_env

_MEASURE = """
import json, sys
from repro.api import vet
from repro.evaluation.scaling import SHAPES
from repro.perf import phase_peaks
source = SHAPES[sys.argv[1]](int(sys.argv[2]))
vet(source)  # one-time caches (interned constants, compiled patterns)
with phase_peaks() as peaks:
    vet(source)
print(json.dumps(peaks))
"""

#: (shape, size) -> the P1, P2, P3 bounds in MB.
BOUNDS = {
    ("flat", 32): (5.5, 5.0, 4.2),
    ("chain", 32): (3.55, 2.95, 2.8),
}


@pytest.mark.parametrize(
    "shape, size", sorted(BOUNDS), ids=[f"{s}{n}" for s, n in sorted(BOUNDS)]
)
def test_phase_peaks_stay_bounded(shape, size):
    env = dict(source_env(), PYTHONHASHSEED="0")
    measured = subprocess.run(
        [sys.executable, "-c", _MEASURE, shape, str(size)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    peaks = json.loads(measured.stdout)
    assert len(peaks) == 3, peaks
    for phase, peak, bound in zip(("P1", "P2", "P3"), peaks, BOUNDS[shape, size]):
        assert peak <= bound, (
            f"{shape}{size} {phase} peaked at {peak} MB (bound {bound} MB); "
            f"all phases: {peaks}"
        )
    assert all(peak > 0 for peak in peaks), peaks
