"""Computed-property resolution: what resolves, what must refuse.

Resolution is sound only as an over-approximation of the abstract
machine's ``ToString`` coercion, so each refusal case here is a shape
where the solved environment genuinely cannot bound the key — the site
must stay residual (and with it, the prefilter must stay off).
"""

import pytest

from repro.js.parser import parse
from repro.lint.keys import environment_global_names, resolve_computed_sites
from repro.lint.surface import resolved_surface

pytestmark = pytest.mark.lint


def _resolution(source: str):
    """The resolved name sets and the residual spans of ``source``."""
    return resolve_computed_sites((parse(source),))


def _residual_sites(source: str) -> int:
    resolved, residual = _resolution(source)
    assert resolved == [], resolved
    return len(residual)


def _only_site_names(source: str) -> frozenset[str]:
    resolved, residual = _resolution(source)
    assert residual == (), residual
    [names] = resolved
    return names


class TestResolves:
    def test_literal_variable_key(self):
        names = _only_site_names(
            "var o = { alpha: 1 };\nvar k = 'alpha';\nvar v = o[k];"
        )
        # Hoisted reads can observe the pre-assignment undefined.
        assert names == frozenset({"alpha", "undefined"})

    def test_concatenated_key(self):
        names = _only_site_names(
            "var p = 'al';\nvar k = p + 'pha';\nvar v = o[k];"
        )
        assert "alpha" in names

    def test_conditional_key(self):
        names = _only_site_names(
            "var o = {};\nvar v = o[flag ? 'a' : 'b'];"
        )
        assert {"a", "b"} <= names

    def test_numeric_suffix_key(self):
        names = _only_site_names("var i = 1;\nvar v = o['q' + i];")
        assert "q1" in names

    def test_multiple_assignments_join(self):
        names = _only_site_names(
            "var k = 'a';\nk = 'b';\nvar v = o[k];"
        )
        assert {"a", "b"} <= names


class TestRefuses:
    def test_parameter_key_is_residual(self):
        assert _residual_sites(
            "var o = {};\nfunction pick(k) { return o[k]; }\npick('a');"
        ) == 1

    def test_for_in_variable_is_residual(self):
        assert _residual_sites(
            "var o = { a: 1 };\nfor (var k in o) { var v = o[k]; }"
        ) == 1

    def test_environment_global_key_is_residual(self):
        # `location` is a window global: the environment can bind it to
        # values the constant lattice does not model.
        assert _residual_sites("var v = o[location];") == 1

    def test_compound_assignment_blocks_the_name(self):
        assert _residual_sites(
            "var k = 'a';\nk += 'b';\nvar v = o[k];"
        ) == 1

    def test_untrusted_input_makes_every_site_residual(self):
        # Under a degraded parse or dynamic code the solved environment
        # may miss assignments, so the prefilter never asks the resolver.
        source = "var k = 'a';\nvar v = o[k];"
        assert resolved_surface([parse(source)]).resolved_sites == 1
        for surface in (
            resolved_surface([parse(source)], degraded=True),
            resolved_surface([parse(source + "\neval('k = 1');")]),
        ):
            assert surface.resolved_sites == 0
            assert len(surface.dynamic_property_sites) == 1

    def test_call_result_key_is_residual(self):
        assert _residual_sites("var k = pick();\nvar v = o[k];") == 1


class TestEnvironmentBlocklist:
    def test_enumerated_from_the_real_environments(self):
        names = environment_global_names()
        # The classic escape hatches must all be present: if any of
        # these ever left the blocklist, a key like `o[window]` would
        # resolve against an environment value we do not model.
        assert {
            "window", "document", "chrome", "browser", "location",
            "XMLHttpRequest", "setTimeout", "eval",
        } <= names

    def test_literal_sites_are_not_counted(self):
        # `o['a']` has a static name: neither resolved nor residual.
        assert _residual_sites("var v = o['a'];") == 0
