"""Hypothesis: the resolving prefilter preserves signatures over the
verdict-carrying generator's whole blueprint space.

Every generated addon knows its expected signature, so each drawn case
checks three ways at once: prefilter-on (with computed-key resolution)
equals prefilter-off equals the expected text. Bundles ride through
``generate_addon`` (the generator mixes singles and multi-file
extensions), so the webext parse/resolution path is exercised by the
same property. A prefiltered addon is also held against the plain,
resolution-free scan: resolved sites are exactly what kept it out of
the plain scan's fast lane.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import select_front_end, vet
from repro.corpusgen import expected_signature_text, generate_addon
from repro.corpusgen.generator import _draw_blueprint
from repro.lint.surface import nodes_surface, spec_surface

pytestmark = pytest.mark.lint

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(seed=st.integers(0, 10_000))
@_SETTINGS
def test_blueprint_signatures_survive_preanalysis(seed):
    rng = random.Random(f"preanalysis:{seed}")
    blueprint = _draw_blueprint(rng)
    source = blueprint.render()
    on = vet(source, prefilter=True)
    off = vet(source, prefilter=False)
    expected = expected_signature_text(blueprint.expected_entries())
    assert on.signature.render() == expected
    assert off.signature.render() == expected


@given(seed=st.integers(0, 5_000), index=st.integers(0, 7))
@_SETTINGS
def test_generated_addons_survive_preanalysis(seed, index):
    addon = generate_addon(seed, index)
    on = vet(addon.source, prefilter=True)
    off = vet(addon.source, prefilter=False)
    assert on.signature.render() == addon.expected_signature, addon.name
    assert off.signature.render() == addon.expected_signature, addon.name


@given(seed=st.integers(0, 5_000))
@_SETTINGS
def test_prefilter_and_preanalysis_compose(seed):
    # The composed fast lane (prefilter fed by resolution) must still
    # land on the expected signature for every generated addon, and a
    # prefiltered one got past the plain scan only if it resolved sites.
    addon = generate_addon(seed, 0)
    report = vet(addon.source, prefilter=True)
    assert report.signature.render() == addon.expected_signature, addon.name
    if report.prefiltered:
        front_end = select_front_end(addon.source)
        plain = nodes_surface(front_end.read(addon.source, False).programs)
        assert not plain.dynamic_code
        assert not plain.names & spec_surface(front_end.default_spec())
        resolved = report.counters["resolved_sites"]
        assert plain.dynamic_properties == bool(resolved), addon.name
