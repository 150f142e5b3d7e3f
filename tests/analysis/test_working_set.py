"""The working set of one vet stays bounded, phase by phase.

A big addon's vet holds the fixpoint's per-(statement, context) states
and then the PDG's reaching definitions over the same nodes, so each
phase's traced-memory peak (``repro.perf.phase_peaks``) is what limits
how many vets one box can run. Each vet runs in a fresh interpreter
with a fixed hash seed: the analysis keeps process-wide intern tables,
and a measurement that depended on what earlier tests left in them
would not be repeatable. ``phase_peaks`` runs the collector first and
holds it off during the vet, so a reading does not move with where full
collections land. Readings (MB, P1/P2/P3) on CPython 3.11:

- flat32: 3.98/3.48/3.70;
- chain32: 1.81/1.90/2.26.

Each bound sits ~0.25 MB above them (CPython 3.12 read up to 0.15 MB
more before the collector was held off), and below the readings of the
representation before the merge memo dropped entries whose operands
died, the transfer closures shared their parts, the DDG kept facts
only at chain heads and PDG edges shared their annotation sets (flat32
5.52/5.00/4.24, chain32 3.34/2.75/2.63, same protocol). flat64
(8.17/6.74/6.88, from 11.27/10.23/7.84) is not measured here: its
traced vet alone takes ~15 s.
"""

import gc
import json
import subprocess
import sys

import pytest

from repro.perf import phase_end, phase_peaks
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
    ("flat", 32): (4.25, 3.75, 3.95),
    ("chain", 32): (2.05, 2.15, 2.5),
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


def test_phase_peaks_holds_the_collector_off_and_restores_it():
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            with phase_peaks() as peaks:
                held_off = not gc.isenabled()
                phase_end()
            assert held_off
            assert gc.isenabled() == enabled
            assert len(peaks) == 1
    finally:
        gc.enable() if was_enabled else gc.disable()
