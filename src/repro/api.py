"""The public high-level API: the paper's three-phase pipeline.

- **Phase 1** (:func:`analyze_addon`): parse, lower (with the synthetic
  event loop), and run the base abstract interpretation under the
  browser environment.
- **Phase 2** (:func:`build_addon_pdg`): construct the annotated PDG.
- **Phase 3** (:func:`infer_addon_signature`): infer the security
  signature against a security spec (default: the Mozilla-flavored one).

:func:`vet` runs all three and returns a :class:`VettingReport`, which is
what the CLI and the evaluation harness consume. It is the only vetting
pipeline: it runs over a :class:`ProgramSet` that a :class:`FrontEnd`
reads from the source text — a single JS file is a one-program set, an
extension bundle (:mod:`repro.webext.pipeline`) one program per
component file — and :func:`select_front_end` is the one place that
tells the two apart. :func:`diff_vet` is the *update*-shaped entry:
given an approved old version and a new version, it tries the
incremental fast lane (change-surface certificate, see
:mod:`repro.diffvet.incremental`) and otherwise re-analyzes and
classifies the signature change (:mod:`repro.diffvet.diff`).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.analysis import AnalysisResult, analyze
from repro.analysis.environment import Environment
from repro.browser import BrowserEnvironment, mozilla_spec
from repro.faults import Budget, Degradation, FailureKind
from repro.ir import ProgramIR, lower
from repro.js import ast as js_ast
from repro.js import node_count, parse, parse_with_recovery
from repro.js.parser import SkippedStatement
from repro.pdg import PDG, build_pdg
from repro.perf import Counters, PhaseTimes, phase_end
from repro.signatures import (
    Comparison,
    InferenceDetail,
    SecuritySpec,
    Signature,
    compare,
    widen_detail,
)


def analyze_addon(
    source: str,
    k: int = 1,
    event_loop: bool = True,
    environment=None,
    budget: Budget | None = None,
    salvage: bool = False,
) -> tuple[ProgramIR, AnalysisResult]:
    """Phase 1: frontend + base analysis."""
    program = lower(parse(source), event_loop=event_loop)
    env = environment if environment is not None else BrowserEnvironment()
    return program, analyze(program, env, k=k, budget=budget, salvage=salvage)


def build_addon_pdg(result: AnalysisResult) -> PDG:
    """Phase 2: the annotated PDG."""
    return build_pdg(result)


def infer_addon_signature(
    result: AnalysisResult,
    pdg: PDG,
    spec: SecuritySpec | None = None,
) -> InferenceDetail:
    """Phase 3: signature inference."""
    return infer_detail(result, pdg, spec)


def infer_detail(result, pdg, spec=None) -> InferenceDetail:
    from repro.signatures import infer_signature as run_inference

    return run_inference(result, pdg, spec if spec is not None else mozilla_spec())


@dataclass
class VettingReport:
    """Everything the vetter sees for one addon.

    When the relevance prefilter proved the addon trivially safe
    (``prefiltered=True``), the heavyweight phases never ran and nothing
    was lowered: ``program``, ``result`` and ``pdg`` are ``None`` and
    the signature is empty.
    """

    program: ProgramIR | None
    result: AnalysisResult | None
    pdg: PDG | None
    detail: InferenceDetail
    ast_nodes: int
    comparison: Comparison | None = None
    #: Call statements whose callee the analysis could not resolve —
    #: worth a manual look (unmodeled APIs or dead code).
    unknown_calls: frozenset[int] = frozenset()
    #: Per-phase wall time of this run (P1 analysis / P2 PDG / P3
    #: inference), measured by :func:`vet`.
    phase_times: PhaseTimes | None = None
    #: Hot-path statistics: the interpreter's fixpoint counters plus
    #: PDG/signature sizes. Pure observability (never affects results).
    counters: Counters = field(default_factory=Counters)
    #: Degradation events (budget trips, skipped statements). When
    #: non-empty the signature has been widened to ⊤ over the spec: it
    #: is sound but deliberately coarse, and must be surfaced as
    #: "degraded" wherever the report is shown.
    degradations: tuple[Degradation, ...] = ()
    #: The sound relevance prefilter (``repro.lint.surface``) proved no
    #: run of the full analysis could emit an entry, so none ran.
    prefiltered: bool = False
    #: The prefilter's full decision (site spans for ``vet --explain``),
    #: when the prefilter ran.
    prefilter_decision: object | None = None

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)

    @property
    def signature(self) -> Signature:
        return self.detail.signature

    def render(self) -> str:
        lines = [f"AST nodes: {self.ast_nodes}", "signature:"]
        if self.prefiltered:
            lines.insert(
                0,
                "PREFILTERED (no overlap with the spec surface; "
                "trivially-empty signature, interpreter skipped)",
            )
        if self.degraded:
            lines.insert(0, "DEGRADED (signature widened to a sound ⊤):")
            lines[1:1] = [
                f"  {degradation.render()}" for degradation in self.degradations
            ]
        rendered = self.signature.render()
        lines.extend(
            f"  {line}" for line in (rendered.splitlines() or ["  (empty)"])
        )
        if self.phase_times is not None:
            lines.append(f"timing: {self.phase_times.render()}")
        if self.unknown_calls:
            lines.append(f"unresolved callees at {len(self.unknown_calls)} call site(s)")
        if self.result is not None and self.program is not None:
            for tag, sid in sorted(self.result.diagnostics):
                line = self.program.stmts[sid].line
                lines.append(f"diagnostic: {tag} at line {line}")
        if self.comparison is not None:
            lines.append(self.comparison.render())
        return "\n".join(lines)


@dataclass
class ProgramSet:
    """One vetting input, parsed: what :func:`vet` needs from a front end."""

    #: The parsed programs, one per source file.
    programs: tuple[js_ast.Program, ...]
    #: Recovery-mode skips (empty unless ``recover``).
    degradations: list[Degradation]
    ast_nodes: int
    #: Lowers the programs into the one program the interpreter runs.
    lower: Callable[[], ProgramIR]
    #: Builds the abstract environment the program runs in.
    environment: Callable[[], Environment]
    #: Adjusts the inferred detail before salvage widening, and may add
    #: counters: ``(result, pdg, detail, counters) -> detail``.
    post_inference: (
        Callable[[AnalysisResult, PDG, InferenceDetail, Counters], InferenceDetail]
        | None
    ) = None
    #: Counters every report of this input carries.
    counters: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class FrontEnd:
    """One kind of vetting input and how to read it."""

    #: ``(source, recover) -> ProgramSet``.
    read: Callable[[str, bool], ProgramSet]
    #: The spec a vet uses when the caller names none.
    default_spec: Callable[[], SecuritySpec]
    #: Why the change-surface certificate cannot judge an update of
    #: this kind (``None``: it can).
    certificate_refusal: str | None = None


def recovery_degradation(skip: SkippedStatement, where: str = "") -> Degradation:
    """The degradation a recovery-mode skip records; ``where`` names
    the file for multi-file inputs."""
    return Degradation(
        kind=(
            FailureKind.UNSUPPORTED_SYNTAX
            if skip.unsupported
            else FailureKind.PARSE_ERROR
        ),
        detail=f"skipped top-level statement{where}: {skip.render()}",
    )


def _read_js_file(source: str, recover: bool) -> ProgramSet:
    if recover:
        syntax_tree, skipped = parse_with_recovery(source)
        degradations = [recovery_degradation(skip) for skip in skipped]
    else:
        syntax_tree = parse(source)
        degradations = []
    return ProgramSet(
        programs=(syntax_tree,),
        degradations=degradations,
        ast_nodes=node_count(syntax_tree),
        lower=lambda: lower(syntax_tree, event_loop=True),
        environment=BrowserEnvironment,
    )


#: A single JS file: the paper's addons.
JS_FILE = FrontEnd(read=_read_js_file, default_spec=mozilla_spec)


def select_front_end(*sources: str) -> FrontEnd:
    """The front end that reads ``sources``: the extension-bundle one
    when any of them is a serialized bundle (``repro.webext.loader``),
    else :data:`JS_FILE`. An update passes both of its versions."""
    from repro.webext.loader import is_bundle_text

    if any(is_bundle_text(source) for source in sources):
        from repro.webext.pipeline import BUNDLE

        return BUNDLE
    return JS_FILE


def infer_signature(source: str, spec: SecuritySpec | None = None, k: int = 1) -> Signature:
    """One-call convenience: addon source -> inferred signature."""
    return vet(source, spec=spec, k=k).signature


def vet(
    source: str,
    manual: Signature | None = None,
    real_extras: frozenset = frozenset(),
    spec: SecuritySpec | None = None,
    k: int = 1,
    budget: Budget | None = None,
    recover: bool = False,
    prefilter: bool = False,
) -> VettingReport:
    """Run the full pipeline; optionally compare against a manual
    signature (the Table 2 methodology). The report carries per-phase
    wall times and the hot-path counters of this run.

    ``source`` is a single JS file or a serialized WebExtension bundle
    (the ``repro.webext.loader`` text form that ``load_source`` gives an
    extension directory). :func:`select_front_end` picks how to read
    it; a bundle brings the chrome environment, the WebExt default spec
    and the sender-guard downgrade. Carrying bundles as plain text keeps
    every downstream consumer — batch runner, vetting service,
    differential vetting — free of special cases.

    ``budget`` bounds the base analysis cooperatively (fixpoint steps,
    wall clock, abstract states); a tripped budget *degrades* the run —
    the report comes back ``degraded=True`` with its signature widened
    to a sound ⊤ over the spec — instead of raising. ``recover`` does
    the same for unparseable top-level statements: they are skipped, the
    remainder analyzed, and the report flagged degraded.

    ``prefilter`` turns on the sound relevance prefilter
    (:func:`repro.lint.surface.decide_relevance`): an addon whose
    syntactic surface cannot reach the spec — no shared names, no
    dynamic code, no dynamic property access, no recovery skips — gets
    the trivially-empty signature without lowering or running the
    interpreter. Any disqualifier falls back to the full pipeline, so
    the result is bit-identical either way (proven addon-by-addon in
    ``tests/lint/test_prefilter_soundness.py``). When computed property
    sites alone would refuse the fast lane, the prefilter resolves their
    keys (:mod:`repro.preanalysis`): sites with provably-finite key sets
    count as named surface. A report with the prefilter on carries the
    ``resolved_sites`` / ``residual_dynamic_sites`` counters.
    """
    from repro.lint.surface import decide_relevance

    front_end = select_front_end(source)
    resolved_spec = spec if spec is not None else front_end.default_spec()
    start = time.perf_counter()
    program_set = front_end.read(source, recover)
    degradations = list(program_set.degradations)
    counters = Counters(program_set.counters)
    decision = None
    if prefilter:
        decision = decide_relevance(
            program_set.programs, resolved_spec, degraded=bool(degradations)
        )
        counters.update(decision.counters)
        if not decision.relevant:
            after_parse = phase_end()
            detail = InferenceDetail(
                signature=Signature(), provenance={}, source_statements={}
            )
            comparison = None
            if manual is not None:
                comparison = compare(detail.signature, manual, real_extras)
            counters["prefiltered"] = 1
            return VettingReport(
                program=None,
                result=None,
                pdg=None,
                detail=detail,
                ast_nodes=program_set.ast_nodes,
                comparison=comparison,
                phase_times=PhaseTimes(
                    p1=after_parse - start, p2=0.0, p3=0.0
                ),
                counters=counters,
                degradations=(),
                prefiltered=True,
                prefilter_decision=decision,
            )
    # Keep only what the later phases need: dropping the program set
    # frees the parse trees as soon as they are lowered.
    ast_nodes = program_set.ast_nodes
    environment = program_set.environment
    post_inference = program_set.post_inference
    program = program_set.lower()
    del program_set
    result = analyze(program, environment(), k=k, budget=budget, salvage=True)
    degradations.extend(result.degradations)
    after_p1 = phase_end()
    pdg = build_pdg(result)
    after_p2 = phase_end()
    detail = infer_detail(result, pdg, resolved_spec)
    if post_inference is not None:
        detail = post_inference(result, pdg, detail, counters)
    if degradations:
        detail = widen_detail(detail, resolved_spec)
    after_p3 = phase_end()
    comparison = None
    if manual is not None:
        comparison = compare(detail.signature, manual, real_extras)
    counters.update(result.counters)
    counters["pdg_edges"] = len(pdg.edges)
    counters["pdg_cyclic_statements"] = len(pdg.cyclic)
    counters["signature_entries"] = len(detail.signature.entries)
    if degradations:
        counters["degradations"] = len(degradations)
    return VettingReport(
        program=program,
        result=result,
        pdg=pdg,
        detail=detail,
        ast_nodes=ast_nodes,
        comparison=comparison,
        unknown_calls=result.unknown_callees,
        phase_times=PhaseTimes(
            p1=after_p1 - start,
            p2=after_p2 - after_p1,
            p3=after_p3 - after_p2,
        ),
        counters=counters,
        degradations=tuple(degradations),
        prefilter_decision=decision,
    )


# ----------------------------------------------------------------------
# Differential vetting


@dataclass
class DiffVetReport:
    """Everything the vetter sees for one addon *update*.

    ``verdict`` is the queue-routing decision:

    - ``approve-fast`` — the change-surface certificate proved the
      signature unchanged; the new version was never re-analyzed
      (``new_report`` is ``None``) and the approved signature stands;
    - ``approve`` — re-analyzed; nothing widened, nothing new: the
      previous approval still covers every claim;
    - ``re-review`` — re-analyzed; at least one entry widened or
      appeared, listed in ``diff`` with a witness path per new/widened
      flow in ``witnesses``.
    """

    certificate: object  # repro.diffvet.incremental.ChangeCertificate
    verdict: str
    old_signature: Signature
    new_signature: Signature
    diff: object  # repro.diffvet.diff.SignatureDiff
    witnesses: list = field(default_factory=list)
    old_report: VettingReport | None = None
    new_report: VettingReport | None = None

    @property
    def fast_lane(self) -> bool:
        return self.verdict == "approve-fast"

    def render(self) -> str:
        lines = [f"differential vetting: {self.verdict}"]
        lines.append(f"certificate: {self.certificate.render()}")
        lines.append(self.diff.render())
        for witness in self.witnesses:
            lines.append(witness.render())
        return "\n".join(lines)


def diff_vet(
    old_source: str,
    new_source: str,
    spec: SecuritySpec | None = None,
    k: int = 1,
    budget: Budget | None = None,
    recover: bool = False,
    old_signature: Signature | None = None,
) -> DiffVetReport:
    """Vet an addon update against its approved previous version.

    Tries the incremental fast lane first: when the change-surface
    certificate (:func:`repro.diffvet.incremental.certify_unchanged`)
    holds, ``signature(new) == signature(old)`` is known without
    re-running the interpreter, and the approved signature is served
    (``approve-fast``). Otherwise the new version goes through the full
    pipeline and the two signatures are classified entry-by-entry under
    the lattice order (``approve`` / ``re-review``), with an
    ``explain_flow`` witness for every widened or new flow.

    ``old_signature`` short-circuits re-deriving the approved signature
    (a vetting service has it on file — e.g. in a
    :class:`repro.diffvet.store.VersionStore` chain); without it, the
    old version is vetted once here to establish the baseline.
    """
    from repro.diffvet.diff import diff_signatures
    from repro.diffvet.incremental import ChangeCertificate, certify_unchanged
    from repro.signatures.explain import explain_flow

    front_end = select_front_end(old_source, new_source)
    resolved_spec = spec if spec is not None else front_end.default_spec()
    if front_end.certificate_refusal is not None:
        # The fast lane is refused; both versions take the full pipeline.
        certificate = ChangeCertificate(
            certified=False, reason=front_end.certificate_refusal
        )
    else:
        certificate = certify_unchanged(
            old_source, new_source, resolved_spec, recover=recover
        )
    old_report = None
    if old_signature is None:
        old_report = vet(
            old_source, spec=spec, k=k, budget=budget, recover=recover
        )
        old_signature = old_report.signature
    if certificate.certified:
        return DiffVetReport(
            certificate=certificate,
            verdict="approve-fast",
            old_signature=old_signature,
            new_signature=old_signature,
            diff=diff_signatures(old_signature, old_signature, resolved_spec),
            old_report=old_report,
        )
    new_report = vet(new_source, spec=spec, k=k, budget=budget, recover=recover)
    diff = diff_signatures(old_signature, new_report.signature, resolved_spec)
    witnesses = []
    if new_report.pdg is not None:
        for entry in diff.review_flows:
            witness = explain_flow(new_report.pdg, new_report.detail, entry)
            if witness is not None:
                witnesses.append(witness)
    return DiffVetReport(
        certificate=certificate,
        verdict=diff.verdict,
        old_signature=old_signature,
        new_signature=new_report.signature,
        diff=diff,
        witnesses=witnesses,
        old_report=old_report,
        new_report=new_report,
    )
