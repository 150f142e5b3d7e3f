"""The prefilter resolves computed keys lazily, and loses nothing by it.

:func:`repro.lint.surface.decide_relevance` scans a program set's
surface once and asks the resolver only when computed sites alone would
refuse the fast lane. The eager control resolves every site up front and
scans with the resolution applied: over every program the repo vets (the
curated corpus, the examples under recovery, the extension bundles and a
generated corpus) both must reach the same decision, down to the site
spans and the resolved-site count.
"""

from dataclasses import replace

import pytest

from repro.api import select_front_end
from repro.lint.keys import resolve_computed_sites
from repro.lint.surface import (
    PrefilterDecision,
    decide_relevance,
    nodes_surface,
    spec_surface,
)
from tests.test_pipeline_parity import PROGRAMS

pytestmark = pytest.mark.lint

SOURCES = {
    **PROGRAMS,
    "dynamic-code": ("var k = 'a'; var v = o[k]; eval('x');", False),
    "compound": ("var k = 'a'; o[k] += 1; o[j] -= 1;", False),
}


def _eager_decision(programs, spec, degraded: bool) -> PrefilterDecision:
    """The decision over a surface with every computed site resolved up
    front and folded in (none under dynamic code or a degraded parse:
    the solved environment may then miss assignments)."""
    if degraded:
        return PrefilterDecision(relevant=True, reason="degraded-input")
    surface = nodes_surface(programs)
    if not surface.dynamic_code:
        resolved, residual = resolve_computed_sites(programs)
        surface = replace(
            surface,
            names=surface.names.union(*resolved),
            dynamic_properties=bool(residual),
            dynamic_property_sites=residual,
            resolved_sites=len(resolved),
        )
    common = {
        "dynamic_property_sites": surface.dynamic_property_sites,
        "resolved_sites": surface.resolved_sites,
    }
    if surface.dynamic_code:
        return PrefilterDecision(
            relevant=True, reason="dynamic-code",
            dynamic_code_sites=surface.dynamic_code_sites, **common,
        )
    if surface.dynamic_properties:
        return PrefilterDecision(
            relevant=True, reason="dynamic-properties", **common
        )
    overlap = surface.names & spec_surface(spec)
    if overlap:
        return PrefilterDecision(
            relevant=True, reason="surface-overlap", overlap=overlap,
            resolved_sites=surface.resolved_sites,
        )
    return PrefilterDecision(
        relevant=False, reason="no-overlap",
        resolved_sites=surface.resolved_sites,
    )


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_surface_equals_a_resolved_scan(name):
    source, recover = SOURCES[name]
    front_end = select_front_end(source)
    spec = front_end.default_spec()
    program_set = front_end.read(source, recover)
    degraded = bool(program_set.degradations)
    lazy = decide_relevance(program_set.programs, spec, degraded=degraded)
    eager = _eager_decision(program_set.programs, spec, degraded)
    for field in ("relevant", "reason", "overlap", "dynamic_code_sites",
                  "dynamic_property_sites", "resolved_sites"):
        assert getattr(lazy, field) == getattr(eager, field), field


def test_dynamic_code_leaves_every_site_residual():
    # eval could assign any name, so the resolver is not trusted.
    source, _ = SOURCES["dynamic-code"]
    front_end = select_front_end(source)
    decision = decide_relevance(
        front_end.read(source, False).programs, front_end.default_spec()
    )
    assert decision.reason == "dynamic-code"
    assert decision.resolved_sites == 0
    assert len(decision.dynamic_property_sites) == 1


class TestVetRunsOnlyWhatItNeeds:
    """Spies on the resolver and the call graph: a vet builds no call
    graph, and resolves computed keys only inside a prefilter whose plain
    scan found computed sites."""

    CONSTANT_KEY = "var k = 'title'; var v = document[k];"
    NO_COMPUTED_KEY = "var palette = { light: '#fff' }; var c = palette.light;"

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.lint import callgraph, keys

        calls = []

        def spy(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            keys, "resolve_computed_sites",
            spy("resolve", keys.resolve_computed_sites),
        )
        # Every call graph is built through this constructor, whatever
        # name its builder was imported under.
        monkeypatch.setattr(
            callgraph, "CallGraph", spy("callgraph", callgraph.CallGraph)
        )
        return calls

    def test_resolves_when_computed_sites_alone_refuse(self, calls):
        from repro.api import vet

        report = vet(self.CONSTANT_KEY, prefilter=True)
        assert calls == ["resolve"]
        assert report.counters["resolved_sites"] == 1

    def test_no_resolution_with_the_prefilter_off(self, calls):
        from repro.api import vet

        report = vet(self.CONSTANT_KEY, prefilter=False)
        assert calls == []
        assert "resolved_sites" not in report.counters

    def test_no_resolution_without_dynamic_properties(self, calls):
        from repro.api import vet

        report = vet(self.NO_COMPUTED_KEY, prefilter=True)
        assert report.prefiltered
        assert calls == []

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_never_builds_a_call_graph(self, calls, name):
        from repro.api import vet

        source, recover = PROGRAMS[name]
        for prefilter in (False, True):
            vet(source, recover=recover, prefilter=prefilter)
        assert "callgraph" not in calls
