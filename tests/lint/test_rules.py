"""The lint rule engine: per-rule behavior and the golden report.

The golden-file test pins the exact rendered findings for the examples
corpus — rule ids, spans, messages, ordering, and counts — so any
accidental drift in the engine or a rule shows up as a readable diff.
"""

from pathlib import Path

import pytest

from repro.lint import Severity, all_rules, lint_paths, lint_source, rule_table
from repro.lint.engine import expand_paths

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = REPO / "examples" / "addons"
GOLDEN = Path(__file__).with_name("golden_examples.txt")

pytestmark = pytest.mark.lint


def _rules_of(source: str) -> list[str]:
    return [finding.rule for finding in lint_source(source)]


class TestRegistry:
    def test_registered_rule_ids(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == ["CG001", "CG002"] + [f"JS00{n}" for n in range(1, 9)]

    def test_rule_table_includes_frontend_pseudo_rules(self):
        ids = {row[0] for row in rule_table()}
        assert {"R000", "R001"} <= ids
        assert {"WEB001", "WEB002", "WEB003"} <= ids
        assert {"CG001", "CG002"} <= ids
        assert len(ids) == 15

    def test_rule_metadata_complete(self):
        for rule in all_rules():
            assert rule.id and rule.name and rule.description
            assert isinstance(rule.severity, Severity)


class TestDynamicCodeRules:
    def test_eval_call(self):
        assert "JS001" in _rules_of("eval('alert(1)');")

    def test_aliased_eval_not_flagged_by_js001(self):
        # Aliasing hides the call site; the *prefilter* still catches the
        # identifier, but JS001 only fires on direct calls.
        assert "JS001" not in _rules_of("var e = eval; e('x');")

    def test_function_constructor(self):
        assert "JS002" in _rules_of("var f = new Function('return 1;');")
        assert "JS002" in _rules_of("var f = Function('return 1;');")

    def test_string_timer(self):
        assert "JS003" in _rules_of("setTimeout('tick()', 100);")
        assert "JS003" in _rules_of("setInterval('x' + cmd, 100);")

    def test_function_timer_clean(self):
        assert _rules_of("setTimeout(function() { return 1; }, 100);") == []

    def test_with_statement_found_at_token_level(self):
        found = _rules_of("with (o) { x = 1; }\n")
        assert "JS004" in found
        assert "R001" in found  # the parser skipped it too


class TestSurfaceRules:
    def test_sensitive_property_write(self):
        assert "JS005" in _rules_of("document.cookie = 'a=1';")
        assert "JS005" in _rules_of("el.innerHTML = markup;")

    def test_plain_property_write_clean(self):
        assert _rules_of("obj.total = 3;") == []

    def test_dynamic_property_access_on_browser_root(self):
        assert "JS006" in _rules_of("var v = window[name];")

    def test_dynamic_property_access_on_plain_object_clean(self):
        assert "JS006" not in _rules_of("var v = table[name];")

    def test_literal_computed_access_clean(self):
        assert "JS006" not in _rules_of("var v = window['top'];")

    def test_prefix_hostile_conditional(self):
        found = _rules_of(
            "var u = flag ? 'http://a.example/x' : 'http://b.example/y';"
        )
        assert "JS007" in found

    def test_prefix_friendly_conditional_clean(self):
        # One branch is a prefix of the other: the join stays precise.
        found = _rules_of(
            "var u = flag ? 'http://a.example/' : 'http://a.example/deep';"
        )
        assert "JS007" not in found

    def test_prefix_hostile_concat(self):
        assert "JS007" in _rules_of("var u = base + '/api/v1';")

    def test_constant_head_concat_clean(self):
        assert "JS007" not in _rules_of("var u = 'http://a.example' + path;")

    def test_script_injection(self):
        assert "JS008" in _rules_of("loader.loadSubScript('chrome://x.js');")
        assert "JS008" in _rules_of("document.write('<s></s>');")
        assert "JS008" in _rules_of("var s = document.createElement('script');")

    def test_create_element_div_clean(self):
        assert "JS008" not in _rules_of("var d = document.createElement('div');")


class TestFrontendFindings:
    def test_lex_error_single_finding(self):
        findings = lint_source("var ok = 1;\nvar bad = @;")
        assert [finding.rule for finding in findings] == ["R000"]
        assert findings[0].severity is Severity.ERROR

    def test_findings_sorted_and_stable(self):
        source = "eval(a);\ndocument.cookie = 'x';\neval(b);"
        first = lint_source(source)
        second = lint_source(source)
        assert [f.render() for f in first] == [f.render() for f in second]
        lines = [f.span.start.line for f in first]
        assert lines == sorted(lines)

    @pytest.mark.parametrize("depth", [1000, 2000])
    def test_deep_nesting_lints_to_an_ordinary_report(self, tmp_path, depth):
        # The linter parses under the same raised recursion limit as
        # ``parse``, and the CG rules' call graph walks iteratively.
        path = tmp_path / "nested.js"
        path.write_text("var a = " + "[" * depth + "1" + "]" * depth + ";")
        data = lint_paths([path]).to_json()
        assert data["findings"] == []
        assert data["surfaces"][str(path)]["dynamic_code"] is False


class TestGoldenReport:
    """The full examples-corpus report, pinned byte-for-byte."""

    def _report_text(self) -> str:
        lines = []
        for path in sorted(EXAMPLES.glob("*.js")):
            for finding in lint_source(
                path.read_text(encoding="utf-8"), filename=path.name
            ):
                lines.append(finding.render())
        return "\n".join(lines) + "\n"

    def test_examples_match_golden(self):
        assert GOLDEN.exists(), (
            "golden file missing; regenerate with: PYTHONPATH=src python -m "
            "tests.lint.test_rules"
        )
        assert self._report_text() == GOLDEN.read_text(encoding="utf-8")

    def test_every_rule_fires_somewhere_in_examples(self):
        fired = {
            finding.rule
            for path in sorted(EXAMPLES.glob("*.js"))
            for finding in lint_source(path.read_text(encoding="utf-8"))
        }
        assert {f"JS00{n}" for n in range(1, 9)} <= fired
        assert "R001" in fired

    def test_json_report_schema(self):
        report = lint_paths([EXAMPLES])
        data = report.to_json()
        assert data["schema"] == "addon-sig/lint/v2"
        assert set(data["summary"]) == {"error", "warning", "info"}
        for finding in data["findings"]:
            assert set(finding) == {
                "rule", "name", "severity", "message", "span", "file",
            }
            assert set(finding["span"]) == {"start", "end"}
        assert data["surfaces"], "per-file surface section missing"
        for surface in data["surfaces"].values():
            assert set(surface) == {
                "dynamic_code", "dynamic_code_sites", "dynamic_properties",
                "dynamic_property_sites", "resolved_sites",
                "residual_dynamic_sites",
            }
            for span in surface["dynamic_code_sites"]:
                assert set(span) == {"start", "end"}


def test_expand_paths_sorts_directory(tmp_path):
    (tmp_path / "b.js").write_text("var b = 1;")
    (tmp_path / "a.js").write_text("var a = 1;")
    (tmp_path / "notes.txt").write_text("not js")
    expanded = expand_paths([tmp_path])
    assert [p.name for p in expanded] == ["a.js", "b.js"]


if __name__ == "__main__":  # golden-file regeneration helper
    GOLDEN.write_text(TestGoldenReport()._report_text(), encoding="utf-8")
    print(f"regenerated {GOLDEN}")
