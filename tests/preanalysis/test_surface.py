"""The pre-analysis scans a program set's surface once.

``Preanalysis.surface`` is the plain scan with the resolver's verdicts
folded in; the prefilter decides on it instead of scanning again. It
must equal a scan that applies the resolution directly, over every
program the repo vets: the curated corpus, the examples under recovery,
the extension bundles and a generated corpus.
"""

import pytest

from repro.api import select_front_end
from repro.lint.surface import nodes_surface
from repro.preanalysis import preanalyze
from tests.test_pipeline_parity import PROGRAMS

pytestmark = pytest.mark.preanalysis

SOURCES = {
    **PROGRAMS,
    "dynamic-code": ("var k = 'a'; var v = o[k]; eval('x');", False),
    "compound": ("var k = 'a'; o[k] += 1; o[j] -= 1;", False),
}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_surface_equals_a_resolved_scan(name):
    source, recover = SOURCES[name]
    program_set = select_front_end(source).read(source, recover)
    pre = preanalyze(
        program_set.programs, degraded=bool(program_set.degradations)
    )
    assert pre.surface == nodes_surface(
        program_set.programs, resolution=pre.resolution
    )


def test_dynamic_code_leaves_every_site_residual():
    # eval could assign any name, so the resolver is not trusted.
    source, _ = SOURCES["dynamic-code"]
    pre = preanalyze(select_front_end(source).read(source, False).programs)
    assert pre.resolution.resolved_sites == 0
    assert pre.surface.dynamic_properties
