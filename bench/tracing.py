"""Per-layer tracing from outside the program.

The benchmark replaces public functions of each layer, by module
attribute, with wrappers that record one span per call: name, layer,
start, end, parent span and request (the vetted task's name). Nothing
under ``src/`` changes; :meth:`Tracer.uninstall` puts every original
back. Spans stay in memory until the workload ends.

A layer's *self time* is the time its spans cover minus the time their
child spans of other layers cover. A call nested in another call of the
same layer (``decide_relevance`` → ``decide_relevance_many``) is a child
span, so its time counts once, in the layer's outermost call.

Targets the program no longer has are skipped and listed in
:attr:`Tracer.missing`: a layer deleted by a later change reads as zero
instead of breaking the benchmark.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# Span fields, stored as lists for speed: a tuple per span would cost a
# second allocation when the end time is filled in.
NAME, LAYER, START, END, PARENT, REQUEST, NOTE = range(7)


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module.attr`` (``attr`` may be
    ``Class.method``), recorded as span ``name`` in ``layer``."""

    module: str
    attr: str
    name: str
    layer: str


TARGETS = (
    Target("repro.batch", "vet_many", "batch.vet_many", "batch"),
    # The per-task boundary; its task name becomes the request id.
    Target("repro.batch", "_execute_task", "batch.task", "batch"),
    Target("repro.api", "vet", "api.vet", "api"),
    Target("repro.api", "parse", "js.parse", "js"),
    Target("repro.api", "lower", "ir.lower", "ir"),
    Target("repro.api", "analyze", "analysis.fixpoint", "analysis"),
    Target("repro.api", "build_pdg", "pdg.build", "pdg"),
    Target("repro.api", "infer_detail", "signatures.infer", "signatures"),
    Target("repro.preanalysis", "preanalyze", "preanalysis.preanalyze", "preanalysis"),
    Target("repro.preanalysis.pipeline", "resolve_computed_sites",
           "preanalysis.resolve", "preanalysis"),
    Target("repro.preanalysis.pipeline", "build_callgraph",
           "preanalysis.callgraph", "preanalysis"),
    Target("repro.preanalysis.pipeline", "prune_programs",
           "preanalysis.prune", "preanalysis"),
    Target("repro.lint.surface", "decide_relevance", "lint.surface.decide", "lint.surface"),
    Target("repro.lint.surface", "decide_relevance_many", "lint.surface.decide", "lint.surface"),
    Target("repro.lint.surface", "nodes_surface", "lint.surface.scan", "lint.surface"),
    Target("repro.diffvet.incremental", "nodes_surface", "lint.surface.scan", "lint.surface"),
    Target("repro.webext.pipeline", "parse_extension", "webext.parse", "webext"),
    Target("repro.webext.pipeline", "lower_parsed_extension", "webext.lower", "webext"),
    Target("repro.webext.pipeline", "analyze", "analysis.fixpoint", "analysis"),
    Target("repro.webext.pipeline", "build_pdg", "pdg.build", "pdg"),
    Target("repro.webext.pipeline", "infer_detail", "signatures.infer", "signatures"),
    Target("repro.webext.pipeline", "find_sender_guards", "webext.guards", "webext"),
    Target("repro.webext.pipeline", "downgrade_guarded", "webext.guards", "webext"),
    Target("repro.diffvet.incremental", "certify_unchanged", "diffvet.certify", "diffvet"),
    Target("repro.diffvet.diff", "diff_signatures", "diffvet.diff", "diffvet"),
    Target("repro.store", "JsonStore.load", "store.load", "store"),
    Target("repro.store", "JsonStore.put", "store.put", "store"),
)

#: Every layer a span can belong to, in pipeline order.
LAYERS = (
    "batch", "api", "js", "preanalysis", "lint.surface", "ir", "webext",
    "analysis", "pdg", "signatures", "diffvet", "store",
)

#: Counters read from each returned report, summed per workload.
_REPORT_COUNTERS = (
    "fixpoint_steps", "states_created", "state_joins", "pdg_edges",
    "resolved_sites", "pruned_nodes",
)


def _note(name: str, result) -> dict | None:
    """What a span records about its call's return value."""
    if name == "api.vet":
        note = {c: result.counters.get(c, 0) for c in _REPORT_COUNTERS}
        note["prefiltered"] = result.prefiltered
        note["ast_nodes"] = result.ast_nodes
        return note
    if name == "lint.surface.decide":
        return {"prefiltered": not result.relevant}
    if name == "diffvet.certify":
        return {"certified": result.certified}
    if name == "batch.vet_many":
        return {"tasks": len(result), "cached": sum(o.cached for o in result)}
    return None


def _resolve(target: Target):
    """``(owner, attribute, current value)``, or ``None`` when the
    program has no such attribute."""
    owner = importlib.import_module(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    current = getattr(owner, attr, None)
    return None if current is None else (owner, attr, current)


class Tracer:
    """Installs span-recording wrappers and keeps the spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        #: The request id given to spans outside any batch task.
        self.request: str | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.missing = []
        # Import every module before wrapping anything: a module that
        # binds another's function at import time must bind the original.
        for target in TARGETS:
            importlib.import_module(target.module)
        for target in TARGETS:
            found = _resolve(target)
            if found is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            owner, attr, original = found
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, target))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, target: Target):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        name, layer = target.name, target.layer
        sets_request = name == "batch.task"
        tracer = self

        def wrapper(*args, **kwargs):
            outer_request = tracer.request
            if sets_request:
                tracer.request = args[0].name
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                tracer.request = outer_request
            span[NOTE] = _note(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


#: Spans whose enclosing ``api.vet`` the metrics look up.
_INSIDE_VET = frozenset({"js.parse", "lint.surface.scan", "ir.lower", "webext.lower"})


def _self_times(spans: list[list]) -> list[float]:
    children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - children[i] for i, span in enumerate(spans)]


def _vet_of(spans: list[list], index: int) -> list | None:
    """The nearest enclosing ``api.vet`` span."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == "api.vet":
            return spans[parent]
        parent = spans[parent][PARENT]
    return None


def span_metrics(spans: list[list], wall: float) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced pass that took
    ``wall`` seconds."""
    own = _self_times(spans)
    by_name: defaultdict[str, float] = defaultdict(float)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    count = Counter(span[NAME] for span in spans)
    for index, span in enumerate(spans):
        name, layer, parent = span[NAME], span[LAYER], span[PARENT]
        by_name[name] += own[index]
        by_layer[layer] += own[index]
        if parent < 0 or spans[parent][LAYER] != layer:
            calls[layer] += 1

    def notes(name: str, outermost: bool = False) -> list[dict]:
        return [
            span[NOTE] for span in spans
            if span[NAME] == name and span[NOTE] is not None
            and not (outermost and span[PARENT] >= 0
                     and spans[span[PARENT]][NAME] == name)
        ]

    vets = notes("api.vet")
    total = {c: sum(v[c] for v in vets) for c in _REPORT_COUNTERS}
    enclosing = [
        _vet_of(spans, i) if span[NAME] in _INSIDE_VET else None
        for i, span in enumerate(spans)
    ]
    # Nodes per parse second counts single-file vets: a bundle's files
    # are parsed inside the webext front end, not by ``js.parse``.
    parsed_nodes = sum(
        vet[NOTE]["ast_nodes"]
        for span, vet in zip(spans, enclosing)
        if span[NAME] == "js.parse" and vet is not None and vet[NOTE] is not None
    )
    decisions = notes("lint.surface.decide", outermost=True)
    certificates = notes("diffvet.certify")
    sweeps = notes("batch.vet_many")
    scans_in_vets = sum(
        1 for span, vet in zip(spans, enclosing)
        if span[NAME] == "lint.surface.scan" and vet is not None
    )
    wasted = sum(
        1 for span, vet in zip(spans, enclosing)
        if span[NAME] in ("ir.lower", "webext.lower")
        and vet is not None and vet[NOTE] is not None and vet[NOTE]["prefiltered"]
    )
    roots = sum(span[END] - span[START] for span in spans if span[PARENT] < 0)
    tasks = sum(s["tasks"] for s in sweeps)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {
        "js.parse.self_s": by_name["js.parse"],
        "js.parse.nodes_per_s": ratio(parsed_nodes, by_name["js.parse"]),
        "preanalysis.self_s": by_layer["preanalysis"],
        "preanalysis.resolve.self_s": by_name["preanalysis.resolve"],
        "preanalysis.callgraph.self_s": by_name["preanalysis.callgraph"],
        "preanalysis.prune.self_s": by_name["preanalysis.prune"],
        "preanalysis.resolved_sites": total["resolved_sites"],
        "preanalysis.pruned_nodes": total["pruned_nodes"],
        "lint.surface.self_s": by_layer["lint.surface"],
        "lint.surface.hit_rate": ratio(
            sum(d["prefiltered"] for d in decisions), len(decisions)
        ),
        "lint.surface.scans_per_vet": ratio(scans_in_vets, len(vets)),
        "ir.lower.self_s": by_name["ir.lower"],
        "ir.lower.wasted": wasted,
        "webext.lower.self_s": (
            by_name["webext.parse"] + by_name["webext.lower"]
        ),
        "webext.guards.self_s": by_name["webext.guards"],
        "analysis.self_s": by_layer["analysis"],
        "analysis.fixpoint_steps": total["fixpoint_steps"],
        "analysis.states_created": total["states_created"],
        "analysis.state_joins": total["state_joins"],
        "pdg.self_s": by_layer["pdg"],
        "pdg.edges": total["pdg_edges"],
        "signatures.self_s": by_layer["signatures"],
        "diffvet.certify.calls": len(certificates),
        "diffvet.certify.self_s": by_name["diffvet.certify"],
        "diffvet.certify.hit_rate": ratio(
            sum(c["certified"] for c in certificates), len(certificates)
        ),
        "diffvet.diff.self_s": by_name["diffvet.diff"],
        "batch.self_s": by_layer["batch"],
        "batch.cache.hit_rate": ratio(sum(s["cached"] for s in sweeps), tasks),
        "store.load.self_s": by_name["store.load"],
        "store.put.self_s": by_name["store.put"],
        "store.put.calls": count["store.put"],
        "trace.coverage": ratio(roots, wall),
    }
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.share"] = ratio(by_layer[layer], wall)
    return metrics


def spans_json(spans: list[list]) -> list[dict]:
    """The span file's records (start/end in seconds from the first)."""
    origin = spans[0][START] if spans else 0.0
    return [
        {
            "name": span[NAME],
            "layer": span[LAYER],
            "start": span[START] - origin,
            "end": span[END] - origin,
            "parent": span[PARENT],
            "request": span[REQUEST],
        }
        for span in spans
    ]
