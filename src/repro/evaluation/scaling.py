"""``addon-sig scaling``: the synthetic scaling benchmark.

The paper's practicality claim is per-addon ("analysis time is
reasonable" up to ~4k AST nodes); this harness probes *how* the
pipeline scales past that, sweeping synthetic addons from a handful of
nodes to 10k+ and writing a machine-readable ``BENCH_scaling.json``:
per size, the AST node count, best-of-``runs`` P1/P2/P3 times (warm-up
discarded), and the interpreter's hot-path counters (fixpoint steps,
states created, shared copies, WTO components, ...).

Two addon shapes, chosen to stress different interpreter paths:

- ``flat``: N independent event handlers (URL check + network send) —
  the dominant corpus shape; stresses dispatch and state width. The
  largest default size is 128 handlers, ~12k AST nodes.
- ``chain``: N chained callback stages, each with a nested loop,
  terminating in a network send — stresses the WTO scheduler (deep
  call chains, loop heads) and join-heavy propagation.

The report also records per-shape ``doubling_ratios`` (p1 of each size
over p1 of the previous, sizes doubling; quadratic would double into
~4), the end-to-end ``loglog_slope`` of p1 vs AST nodes, and a
``subquadratic`` verdict: slope < 1.8, i.e. the curve is visibly below
quadratic (slope 2) with margin for timing noise. ``p2_loglog_slope``
is the same slope for p2, the PDG (reported, not gated). ``peak_rss_mb`` is
the sweep process's memory high-water mark (reported, not gated).
Entries up to :data:`PEAK_MAX_SIZE` also record each phase's working
set, ``p1_peak_mb``/``p2_peak_mb``/``p3_peak_mb``: the traced-memory
peak of one extra, untimed vet (``repro.perf.phase_peaks``, collector
held off), over the memory traced before it. A phase's peak counts what
earlier phases left alive (reported, not gated).

``check_regression`` gates a fresh report against a checked-in
baseline: it fails when P1 at the largest size regressed more than
``tolerance`` (default 20%). Because CI machines differ in raw speed
from whatever produced the baseline, the gate first calibrates a
machine-speed factor from the *smaller* sizes (median of current/
baseline P1 ratios) and compares the largest size against the baseline
scaled by that factor — so it detects scaling regressions (the top of
the curve bending up) rather than uniform machine slowness, which the
corpus bench already tracks.

Run: ``addon-sig scaling [--runs N] [--output FILE] [--baseline FILE]``.
"""

from __future__ import annotations

import gc
import math
import statistics
from pathlib import Path

SCHEMA = "addon-sig/bench-scaling/v1"

#: Counters worth tracking per size (the interpreter's hot paths, and
#: the PDG's size).
TRACKED_COUNTERS = (
    "fixpoint_steps",
    "analysis_nodes",
    "states_created",
    "state_joins",
    "shared_copies",
    "wto_components",
    "widening_points",
    "closure_cache_hits",
    "pdg_edges",
)

#: Default sweep per shape: doubling sizes, largest flat ≈ 12k AST nodes.
DEFAULT_SIZES = {
    "flat": (1, 2, 4, 8, 16, 32, 64, 128),
    "chain": (2, 4, 8, 16, 32, 64, 128),
}


#: Entries up to this size record per-phase memory peaks. Tracing
#: allocations slows a vet ~8x, so the largest size skips it.
PEAK_MAX_SIZE = 64


def synthesize_flat(handlers: int) -> str:
    """A realistic addon with ``handlers`` independent features.

    Each feature is the dominant corpus shape: an event handler reading
    the page URL, guarding on a marker, and sending it to the network
    with a response callback that writes the DOM."""
    chunks = [
        'var BASE = "https://api.example/feature";',
    ]
    for index in range(handlers):
        chunks.append(
            f"""
function feature{index}(e) {{
    var url = content.location.href;
    var marker = url.indexOf("site{index}");
    if (marker == -1) {{
        return;
    }}
    var req = new XMLHttpRequest();
    req.open("GET", BASE + "{index}?u=" + encodeURIComponent(url), true);
    req.onreadystatechange = function () {{
        if (req.readyState == 4 && req.status == 200) {{
            var label = document.getElementById("label{index}");
            if (label) {{
                label.textContent = req.responseText;
            }}
        }}
    }};
    req.send(null);
}}
window.addEventListener("load", feature{index}, false);
"""
        )
    return "\n".join(chunks)


def synthesize_chain(stages: int) -> str:
    """An addon whose page-load handler threads the URL through
    ``stages`` chained callback stages, each accumulating through a
    nested loop, until the last stage sends the result to the network.

    Deep call chains plus per-stage loop heads make this the adversarial
    shape for the fixpoint scheduler: naive worklist orders re-propagate
    every stage per loop iteration, a WTO order stabilizes each loop
    before moving on."""
    chunks = [
        'var CHAIN_BASE = "https://relay.example/hop";',
        "var hops = 0;",
    ]
    last = stages - 1
    for index in range(stages - 1, -1, -1):
        if index == last:
            body = f"""
function stage{index}(data{index}) {{
    var req = new XMLHttpRequest();
    req.open("GET", CHAIN_BASE + "/{index}?d=" +
             encodeURIComponent(data{index}), true);
    req.onreadystatechange = function () {{
        if (req.readyState == 4 && req.status == 200) {{
            hops = hops + 1;
        }}
    }};
    req.send(null);
}}"""
        else:
            body = f"""
function stage{index}(data{index}) {{
    var out{index} = data{index};
    for (var i{index} = 0; i{index} < 3; i{index} = i{index} + 1) {{
        var row{index} = "";
        for (var j{index} = 0; j{index} < 3; j{index} = j{index} + 1) {{
            row{index} = row{index} + "#{index}";
        }}
        out{index} = out{index} + row{index};
    }}
    stage{index + 1}(out{index});
}}"""
        chunks.append(body)
    chunks.append(
        """
function onPageLoad(e) {
    stage0(content.location.href);
}
window.addEventListener("load", onPageLoad, false);"""
    )
    return "\n".join(chunks)


SHAPES = {
    "flat": synthesize_flat,
    "chain": synthesize_chain,
}


def expected_flows(shape: str, size: int) -> int:
    """Every synthetic addon's flow count is known by construction."""
    return size if shape == "flat" else 1


def _measure(source: str, runs: int, k: int) -> dict:
    """Timing protocol on one source: ``runs`` pipelines, discard the
    warm-up when there is one to spare, per-phase *minimum* of the rest.
    The corpus bench reports medians (expected cost per addon); a
    scaling curve instead wants the noise-floor estimator — best-of is
    stable on shared, loaded CI runners where a single descheduling
    blip would bend the curve and trip the regression gate. Counters
    come from the last run (the pipeline is deterministic)."""
    from repro.api import vet

    samples = []
    report = None
    # Collect now and disable the collector while timing: a gen-2 pass
    # triggers at a deterministic allocation count and would otherwise
    # land its pause on the same sweep entry every run.
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, runs)):
            report = vet(source, k=k)
            assert report.phase_times is not None
            samples.append(report.phase_times)
    finally:
        if was_enabled:
            gc.enable()
    kept = samples[1:] if len(samples) > 1 else samples
    return {
        "p1_s": round(min(s.p1 for s in kept), 6),
        "p2_s": round(min(s.p2 for s in kept), 6),
        "p3_s": round(min(s.p3 for s in kept), 6),
        "total_s": round(min(s.total for s in kept), 6),
        "samples_kept": len(kept),
        "flows": len(report.signature.flows),
        "counters": {
            name: report.counters[name]
            for name in TRACKED_COUNTERS
            if name in report.counters
        },
    }


def _phase_peaks(source: str, k: int) -> dict:
    """Per-phase traced-memory peaks of one untimed vet, in MB."""
    from repro.api import vet
    from repro.perf import phase_peaks

    with phase_peaks() as peaks:
        vet(source, k=k)
    return {
        f"{phase}_peak_mb": peak for phase, peak in zip(("p1", "p2", "p3"), peaks)
    }


def run_scaling(
    runs: int = 3,
    k: int = 1,
    sizes: dict[str, tuple[int, ...]] | None = None,
    output: str | Path | None = "BENCH_scaling.json",
) -> dict:
    """Sweep the synthetic shapes; return (and optionally write) the report."""
    from repro.js import node_count, parse
    from repro.perf import peak_rss_mb

    sizes = sizes if sizes is not None else DEFAULT_SIZES
    shapes = []
    for shape, shape_sizes in sizes.items():
        synthesize = SHAPES[shape]
        entries = []
        for size in shape_sizes:
            source = synthesize(size)
            entry = {
                "size": size,
                "ast_nodes": node_count(parse(source)),
            }
            entry.update(_measure(source, runs=runs, k=k))
            if size <= PEAK_MAX_SIZE:
                entry.update(_phase_peaks(source, k))
            if entry["flows"] != expected_flows(shape, size):
                raise AssertionError(
                    f"{shape}@{size}: expected "
                    f"{expected_flows(shape, size)} flows, "
                    f"got {entry['flows']}"
                )
            entries.append(entry)
        ratios = [
            round(after["p1_s"] / before["p1_s"], 3)
            for before, after in zip(entries, entries[1:])
            if before["p1_s"] > 0
        ]
        shapes.append({
            "shape": shape,
            "entries": entries,
            # p1 growth per size doubling; quadratic would double into ~4.
            "doubling_ratios": ratios,
            "loglog_slope": _loglog_slope(entries),
            "p2_loglog_slope": _loglog_slope(entries, "p2_s"),
            "subquadratic": _loglog_slope(entries) < 1.8,
        })

    report = {
        "schema": SCHEMA,
        "protocol": {
            "runs": runs,
            "discard_first": runs > 1,
            "statistic": "min",
            "k": k,
        },
        "shapes": shapes,
        "peak_rss_mb": peak_rss_mb(),
    }
    if output is not None:
        from repro.store import atomic_write_json

        atomic_write_json(Path(output), report, fsync=False)
    return report


def _loglog_slope(entries: list[dict], phase: str = "p1_s") -> float:
    """End-to-end slope of the log(phase time) vs log(ast_nodes) curve,
    for ``phase`` ``p1_s`` (the default) or ``p2_s``.

    A quadratic pipeline has slope 2, a linear one slope 1. The slope
    is measured from the first entry whose time clears the timer-noise
    floor (10ms) to the largest — endpoints only, so a noisy middle
    entry cannot bend the verdict the way a per-step doubling ratio
    would. The endpoints must also be at least two doublings apart in
    AST nodes: across one doubling, a single timing spike of 1.8x at
    the top reads as a slope near 2, whatever the pipeline's scaling.
    Too few points or too narrow a span reads 0.0."""
    floored = [e for e in entries if e[phase] >= 0.01]
    if len(floored) < 2:
        return 0.0
    first, last = floored[0], floored[-1]
    if last["ast_nodes"] < 4 * first["ast_nodes"]:
        return 0.0
    return round(
        math.log(last[phase] / first[phase])
        / math.log(last["ast_nodes"] / first["ast_nodes"]),
        3,
    )


def _largest_common(
    current: dict, baseline: dict
) -> tuple[list[tuple[dict, dict]], int]:
    by_size_current = {e["size"]: e for e in current["entries"]}
    by_size_baseline = {e["size"]: e for e in baseline["entries"]}
    common = sorted(set(by_size_current) & set(by_size_baseline))
    if not common:
        raise ValueError(
            f"no common sizes for shape {current['shape']!r}"
        )
    return (
        [(by_size_current[s], by_size_baseline[s]) for s in common],
        common[-1],
    )


def check_regression(
    report: dict, baseline: dict, tolerance: float = 0.20
) -> list[str]:
    """Compare a fresh report against the checked-in baseline.

    Returns a list of human-readable failures (empty = gate passes).
    Per shape: calibrate the machine-speed factor as the median of
    current/baseline P1 ratios over all common sizes *below* the
    largest, then fail when P1 at the largest common size exceeds the
    baseline scaled by that factor by more than ``tolerance``."""
    failures = []
    baseline_shapes = {s["shape"]: s for s in baseline.get("shapes", [])}
    for shape_report in report.get("shapes", []):
        shape = shape_report["shape"]
        if shape not in baseline_shapes:
            continue
        paired, largest = _largest_common(
            shape_report, baseline_shapes[shape]
        )
        calibration = [
            cur["p1_s"] / base["p1_s"]
            for cur, base in paired[:-1]
            if base["p1_s"] > 0
        ]
        speed_factor = statistics.median(calibration) if calibration else 1.0
        cur, base = paired[-1]
        allowed = base["p1_s"] * speed_factor * (1.0 + tolerance)
        if cur["p1_s"] > allowed:
            failures.append(
                f"{shape}@{largest}: p1 {cur['p1_s']:.3f}s exceeds "
                f"baseline {base['p1_s']:.3f}s x speed factor "
                f"{speed_factor:.2f} + {tolerance:.0%} tolerance "
                f"(allowed {allowed:.3f}s)"
            )
        if not shape_report.get("subquadratic", True):
            failures.append(
                f"{shape}: log-log slope "
                f"{shape_report.get('loglog_slope')} is not sub-quadratic"
            )
    return failures


def render_scaling(report: dict) -> str:
    lines = [
        f"scaling bench ({report['protocol']['runs']} runs/size, "
        f"best-of after warm-up discard; peak RSS {report['peak_rss_mb']} MB)",
    ]
    for shape_report in report["shapes"]:
        lines.append("")
        lines.append(
            f"  shape {shape_report['shape']} "
            f"(subquadratic: {shape_report['subquadratic']}, "
            f"log-log slope P1 {shape_report['loglog_slope']} "
            f"P2 {shape_report['p2_loglog_slope']}, "
            f"doubling ratios {shape_report['doubling_ratios']})"
        )
        for entry in shape_report["entries"]:
            counters = entry["counters"]
            peaks = ""
            if "p1_peak_mb" in entry:
                peaks = "  peak MB P1/P2/P3 " + "/".join(
                    f"{entry[f'{phase}_peak_mb']:.2f}"
                    for phase in ("p1", "p2", "p3")
                )
            lines.append(
                f"    size {entry['size']:>4}  "
                f"nodes {entry['ast_nodes']:>6}  "
                f"P1 {entry['p1_s']:8.3f}s  "
                f"P2 {entry['p2_s']:8.3f}s  "
                f"steps {counters.get('fixpoint_steps', 0):>7}  "
                f"shared copies {counters.get('shared_copies', 0):>8}"
                f"{peaks}"
            )
    return "\n".join(lines)
