"""Command-line interface: ``addon-sig``.

Subcommands:

- ``vet PATH`` (alias ``analyze``) — infer and print the security
  signature of a single addon file *or* a WebExtension directory
  (``manifest.json`` + background/content scripts): extension
  directories get the multi-file lowering, the ``chrome.*`` model, and
  the cross-component message-flow analysis of :mod:`repro.webext`.
  Optionally compare against a manual signature file, print witnesses
  or a backward slice, and/or dump the annotated PDG as Graphviz dot;
- ``table1`` / ``table2`` / ``figures`` — regenerate the paper's tables
  and figures on the benchmark corpus (``table2`` vets the corpus in
  parallel through the batch engine; ``--workers``/``--cache`` tune it);
- ``bench`` — benchmark the corpus and write ``BENCH_corpus.json``
  (per-addon P1/P2/P3 medians plus hot-path counters, and the relevance
  prefilter's hit rate on the examples corpus); exit 1 when a fast
  path's on/off sweep changed a signature;
- ``scaling`` — sweep synthetic addons (flat handler farms and nested-
  loop callback chains) up to ~12k AST nodes and write
  ``BENCH_scaling.json``; with ``--baseline`` it gates on a >20% P1
  regression at the largest size (machine-speed calibrated);
- ``diff OLD.js NEW.js`` — differential vetting of an addon update:
  fast-lane certificate when the change surface is provably signature-
  preserving, otherwise a full re-analysis with the signature diff
  classified under the lattice order (exit 1 on ``re-review``);
- ``lint PATH...`` — the pre-analysis lint & triage pass: run the rule
  engine over addon files/directories, as human text or stable JSON;
- ``selfcheck`` — the lattice-law sanitizer over every abstract domain;
- ``serve`` — the long-running crash-safe vetting daemon (durable job
  queue + supervised worker pool; JSON-RPC on stdin or localhost HTTP);
- ``service-bench`` — the service-level chaos harness: a concurrent
  workload against two daemons (fault-free control vs. worker kills and
  a daemon SIGKILL+restart), asserting zero lost jobs, no duplicate
  side effects, and byte-identical verdicts; writes
  ``BENCH_service.json`` (exit 1 on any violated invariant).
"""

from __future__ import annotations

import argparse
import sys


def _resolve_spec(name: str, source: str):
    """``--spec`` resolution: ``auto`` takes the default spec of the
    source's front end (WebExt for bundle text, Mozilla for plain
    sources)."""
    if name == "mozilla":
        from repro.browser import mozilla_spec

        return mozilla_spec()
    if name == "webext":
        from repro.browser.chrome import webext_spec

        return webext_spec()
    from repro.api import select_front_end

    return select_front_end(source).default_spec()


def _load_source(path: str) -> str:
    """Load an addon file or bundle directory, turning a manifest
    refusal (missing/empty content_scripts references, malformed
    manifest.json) into a clean CLI error instead of a traceback."""
    from repro.webext.loader import load_source
    from repro.webext.manifest import ManifestError

    try:
        return load_source(path)
    except ManifestError as error:
        raise SystemExit(f"addon-sig: refused: {error}") from error


def _budget(arguments: argparse.Namespace):
    """The cooperative budget of ``--timeout``/``--max-steps`` (the
    default step bound unless ``--max-steps`` sets its own)."""
    from repro.faults import Budget

    if arguments.max_steps is None:
        return Budget(max_seconds=arguments.timeout)
    return Budget(max_steps=arguments.max_steps, max_seconds=arguments.timeout)


def _cmd_vet(arguments: argparse.Namespace) -> int:
    from repro.api import vet
    from repro.signatures import parse_signature

    source = _load_source(arguments.path)

    manual = None
    if arguments.manual:
        with open(arguments.manual, encoding="utf-8") as handle:
            manual = parse_signature(handle.read())

    report = vet(
        source, manual=manual, spec=_resolve_spec(arguments.spec, source),
        k=arguments.k, budget=_budget(arguments), recover=arguments.recover,
        prefilter=arguments.prefilter,
    )
    print(report.render())

    if arguments.explain and report.prefilter_decision is not None:
        print()
        print(report.prefilter_decision.render())
    if report.pdg is None:  # prefiltered: no PDG was built
        return 0

    if arguments.explain:
        from repro.signatures import explain_all

        for witness in explain_all(report.pdg, report.detail):
            print()
            print(witness.render())

    if arguments.slice is not None:
        from repro.pdg.slicing import backward_slice_of_line

        lines = backward_slice_of_line(report.pdg, arguments.slice)
        print()
        print(f"backward slice of line {arguments.slice}: lines {lines}")

    if arguments.dot:
        with open(arguments.dot, "w", encoding="utf-8") as handle:
            handle.write(report.pdg.to_dot())
        print(f"annotated PDG written to {arguments.dot}")
    return 0


def _cmd_diff(arguments: argparse.Namespace) -> int:
    import json

    from repro.api import diff_vet

    old_source = _load_source(arguments.old)
    new_source = _load_source(arguments.new)

    report = diff_vet(
        old_source, new_source, k=arguments.k,
        budget=_budget(arguments), recover=arguments.recover,
    )
    if arguments.format == "json":
        payload = {
            "old": arguments.old,
            "new": arguments.new,
            "verdict": report.verdict,
            "fast_lane": report.fast_lane,
            "certificate": report.certificate.to_json(),
            "old_signature": report.old_signature.render(),
            "new_signature": report.new_signature.render(),
            "diff": report.diff.to_json(),
            "witnesses": [witness.render() for witness in report.witnesses],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render())
    return 1 if report.verdict == "re-review" else 0


def _cmd_table1(arguments: argparse.Namespace) -> int:
    from repro.evaluation import compute_table1, render_table1

    print(render_table1(compute_table1()))
    return 0


def _cmd_table2(arguments: argparse.Namespace) -> int:
    from repro.evaluation import compute_table2, render_table2

    print(render_table2(compute_table2(
        runs=arguments.runs, k=arguments.k,
        workers=arguments.workers, use_cache=arguments.cache,
        timeout=arguments.timeout,
    )))
    return 0


def _cmd_bench(arguments: argparse.Namespace) -> int:
    from repro.evaluation import render_bench, run_bench

    report = run_bench(
        runs=arguments.runs, k=arguments.k, workers=arguments.workers,
        output=arguments.output, use_cache=arguments.cache,
        timeout=arguments.timeout,
    )
    print(render_bench(report))
    print(f"\nwritten to {arguments.output}")
    unsound = [name for name, section in report.items()
               if isinstance(section, dict)
               and not section.get("identical_signatures", True)]
    if unsound:
        print(f"BENCH UNSOUND: {', '.join(unsound)} changed a signature",
              file=sys.stderr)
        return 1
    return 0


def _cmd_fleet(arguments: argparse.Namespace) -> int:
    from repro.corpusgen.fleet import render_fleet, run_fleet

    section = run_fleet(
        count=arguments.count,
        seed=arguments.seed,
        workers=arguments.workers,
        update_count=arguments.updates,
        bundle_fraction=arguments.bundle_fraction,
        service=arguments.service,
        output=arguments.output,
    )
    print(render_fleet(section))
    if arguments.output is not None:
        print(f"\nfleet section merged into {arguments.output}")
    if section["verdict_mismatches"]:
        print(
            f"FLEET UNSOUND: {section['verdict_mismatches']} verdict "
            "mismatches (see the fleet section for details)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_scaling(arguments: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.evaluation import check_regression, render_scaling, run_scaling

    report = run_scaling(
        runs=arguments.runs, k=arguments.k, output=arguments.output,
    )
    print(render_scaling(report))
    print(f"\nwritten to {arguments.output}")
    if arguments.baseline is not None:
        baseline = json.loads(
            Path(arguments.baseline).read_text(encoding="utf-8")
        )
        failures = check_regression(
            report, baseline, tolerance=arguments.tolerance
        )
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"regression gate passed (vs {arguments.baseline})")
    return 0


def _cmd_lint(arguments: argparse.Namespace) -> int:
    from repro.lint import lint_paths, rule_table

    if arguments.rules:
        width = max(len(name) for _, name, _, _ in rule_table())
        for rule_id, name, severity, description in rule_table():
            print(f"{rule_id}  {name:<{width}}  {severity:<7}  {description}")
        return 0
    if not arguments.paths:
        print("error: no paths given (or use --rules)", file=sys.stderr)
        return 2
    report = lint_paths(arguments.paths)
    if arguments.format == "json":
        print(report.render_json())
    else:
        print(report.render())
    if arguments.errors_fail and report.has_errors:
        return 1
    return 0


def _cmd_selfcheck(arguments: argparse.Namespace) -> int:
    from repro.lint import render_selfcheck, run_selfcheck

    results = run_selfcheck()
    print(render_selfcheck(results))
    return 0 if all(result.ok for result in results) else 1


def _cmd_serve(arguments: argparse.Namespace) -> int:
    from repro.service import daemon

    argv = ["--dir", arguments.dir, "--workers", str(arguments.workers),
            "--max-attempts", str(arguments.max_attempts)]
    if arguments.timeout is not None:
        argv += ["--timeout", str(arguments.timeout)]
    if arguments.http is not None:
        argv += ["--http", str(arguments.http)]
    if arguments.stdio:
        argv.append("--stdio")
    if arguments.no_fsync:
        argv.append("--no-fsync")
    if arguments.max_chains is not None:
        argv += ["--max-chains", str(arguments.max_chains)]
    return daemon.main(argv)


def _cmd_service_bench(arguments: argparse.Namespace) -> int:
    from repro.service.loadgen import render_report, run_bench

    report = run_bench(
        arguments.output,
        jobs=arguments.jobs,
        workers=arguments.workers,
        submitters=arguments.submitters,
        worker_kills=arguments.worker_kills,
        daemon_kills=arguments.daemon_kills,
        seed=arguments.seed,
        fsync=not arguments.no_fsync,
        state_dir=arguments.state_dir,
    )
    print(render_report(report))
    print(f"\nwritten to {arguments.output}")
    return 0 if report["checks"]["ok"] else 1


def _cmd_figures(arguments: argparse.Namespace) -> int:
    from repro.evaluation import render_figure2, render_figure4

    print(render_figure2())
    print()
    print(render_figure4())
    return 0


def _cmd_report(arguments: argparse.Namespace) -> int:
    from repro.evaluation import render_report

    print(render_report(runs=arguments.runs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addon-sig",
        description="Security signature inference for JavaScript browser addons",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    vet = subparsers.add_parser(
        "vet",
        aliases=["analyze"],
        help="vet an addon file or a WebExtension directory "
             "(manifest.json + component scripts)",
    )
    vet.add_argument(
        "path",
        help="a JavaScript file, or an extension directory containing "
             "manifest.json",
    )
    vet.add_argument(
        "--manual",
        help="manual signature file to compare against (pass/fail/leak)",
    )
    vet.add_argument("--dot", help="write the annotated PDG as Graphviz dot")
    vet.add_argument(
        "--spec", choices=("auto", "mozilla", "webext"), default="auto",
        help="security spec (auto: webext for extension directories, "
             "mozilla for plain files)",
    )
    vet.add_argument("--k", type=int, default=1, help="context sensitivity")
    vet.add_argument(
        "--explain", action="store_true",
        help="print a witness path for every inferred flow "
             "(cross-component steps carry their component tag)",
    )
    vet.add_argument(
        "--slice", type=int, metavar="LINE",
        help="print the backward slice of a source line",
    )
    vet.add_argument(
        "--recover", action="store_true",
        help="skip unparseable top-level statements and vet the rest "
             "(degraded, ⊤-widened signature)",
    )
    vet.add_argument(
        "--prefilter", action="store_true",
        help="sound relevance prefilter (union surface across all "
             "component files)",
    )
    vet.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="cooperative wall-clock budget (degrades, never fails)",
    )
    vet.add_argument(
        "--max-steps", type=int, default=None, metavar="N",
        help="fixpoint step budget (default 400000); blown budgets degrade",
    )
    vet.set_defaults(handler=_cmd_vet)

    diff = subparsers.add_parser(
        "diff",
        help="vet an addon update: signature diff + incremental fast lane "
             "(exit 1 when the update needs re-review)",
    )
    diff.add_argument("old", help="approved previous version (JavaScript)")
    diff.add_argument("new", help="updated version (JavaScript)")
    diff.add_argument("--k", type=int, default=1, help="context sensitivity")
    diff.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )
    diff.add_argument(
        "--recover", action="store_true",
        help="skip unparseable top-level statements (disables the fast "
             "lane; degraded, ⊤-widened signatures)",
    )
    diff.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="cooperative wall-clock budget per analysis (degrades, "
             "never fails)",
    )
    diff.add_argument(
        "--max-steps", type=int, default=None, metavar="N",
        help="fixpoint step budget (default 400000); blown budgets degrade",
    )
    diff.set_defaults(handler=_cmd_diff)

    table1 = subparsers.add_parser("table1", help="regenerate Table 1")
    table1.set_defaults(handler=_cmd_table1)

    table2 = subparsers.add_parser("table2", help="regenerate Table 2")
    table2.add_argument("--runs", type=int, default=11)
    table2.add_argument("--k", type=int, default=1)
    table2.add_argument(
        "--workers", type=int, default=None,
        help="vetting worker processes (default: one per CPU)",
    )
    table2.add_argument(
        "--cache", action="store_true",
        help="reuse the on-disk vetting result cache",
    )
    table2.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget per addon (degrades, not fails)",
    )
    table2.set_defaults(handler=_cmd_table2)

    bench = subparsers.add_parser(
        "bench", help="benchmark the corpus; write BENCH_corpus.json"
    )
    bench.add_argument(
        "--runs", type=int, default=3,
        help="pipeline runs per addon (first discarded; medians reported)",
    )
    bench.add_argument("--k", type=int, default=1)
    bench.add_argument("--workers", type=int, default=None)
    bench.add_argument("--output", default="BENCH_corpus.json")
    bench.add_argument(
        "--cache", action="store_true",
        help="reuse the on-disk vetting result cache",
    )
    bench.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget per addon (degrades, not fails)",
    )
    bench.set_defaults(handler=_cmd_bench)

    fleet = subparsers.add_parser(
        "fleet",
        help="store-scale benchmark over a generated verdict-carrying "
             "corpus; merge a fleet section into BENCH_corpus.json "
             "(exit 1 on any verdict mismatch)",
    )
    fleet.add_argument(
        "--count", type=int, default=1000,
        help="generated addons to vet (default 1000)",
    )
    fleet.add_argument(
        "--seed", type=int, default=0,
        help="corpus seed (same seed = bit-identical corpus)",
    )
    fleet.add_argument("--workers", type=int, default=None)
    fleet.add_argument(
        "--updates", type=int, default=None, metavar="PAIRS",
        help="update pairs for the incremental sweep "
             "(default count // 5, at least 10)",
    )
    fleet.add_argument(
        "--bundle-fraction", type=float, default=0.25,
        help="share of multi-file WebExtension bundles in the corpus",
    )
    fleet.add_argument(
        "--service", action="store_true",
        help="also round-trip a sample through the service daemon",
    )
    fleet.add_argument("--output", default="BENCH_corpus.json")
    fleet.set_defaults(handler=_cmd_fleet)

    scaling = subparsers.add_parser(
        "scaling",
        help="synthetic scaling benchmark (flat + chain shapes, up to "
             "~12k AST nodes); write BENCH_scaling.json",
    )
    scaling.add_argument(
        "--runs", type=int, default=3,
        help="pipeline runs per size (first discarded; medians reported)",
    )
    scaling.add_argument("--k", type=int, default=1)
    scaling.add_argument("--output", default="BENCH_scaling.json")
    scaling.add_argument(
        "--baseline", default=None,
        help="BENCH_scaling baseline to gate against (exit 1 on "
             "p1 regression at the largest size beyond --tolerance)",
    )
    scaling.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed relative p1 regression at the largest size",
    )
    scaling.set_defaults(handler=_cmd_scaling)

    lint = subparsers.add_parser(
        "lint", help="lint addon sources (pre-analysis triage rules)"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="addon files and/or directories (directories: every *.js)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json is the stable LINT_findings schema)",
    )
    lint.add_argument(
        "--rules", action="store_true",
        help="list every rule (id, name, severity, description) and exit",
    )
    lint.add_argument(
        "--errors-fail", action="store_true",
        help="exit 1 when any error-severity finding is reported",
    )
    lint.set_defaults(handler=_cmd_lint)

    selfcheck = subparsers.add_parser(
        "selfcheck",
        help="check every abstract domain's lattice laws "
             "(exit 1 on any violation)",
    )
    selfcheck.set_defaults(handler=_cmd_selfcheck)

    serve = subparsers.add_parser(
        "serve",
        help="run the crash-safe vetting daemon (durable queue + "
             "supervised worker pool)",
    )
    serve.add_argument(
        "--dir", required=True,
        help="service state directory (journals, results, version chains)",
    )
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job cooperative budget (plus a generous hard backstop)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3,
        help="crashes before a job is quarantined as poison",
    )
    serve.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="serve HTTP on 127.0.0.1:PORT (0 picks a free port)",
    )
    serve.add_argument(
        "--stdio", action="store_true",
        help="newline-delimited JSON-RPC on stdin/stdout (the default)",
    )
    serve.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsyncs (tests only: loses power-failure durability)",
    )
    serve.add_argument(
        "--max-chains", type=int, default=None,
        help="LRU bound on recorded version chains",
    )
    serve.set_defaults(handler=_cmd_serve)

    service_bench = subparsers.add_parser(
        "service-bench",
        help="chaos-test the daemon end to end; write BENCH_service.json "
             "(exit 1 on lost jobs, duplicate side effects, or verdict "
             "drift vs the fault-free control run)",
    )
    service_bench.add_argument("--jobs", type=int, default=50)
    service_bench.add_argument("--workers", type=int, default=2)
    service_bench.add_argument("--submitters", type=int, default=4)
    service_bench.add_argument("--worker-kills", type=int, default=2)
    service_bench.add_argument("--daemon-kills", type=int, default=1)
    service_bench.add_argument("--seed", type=int, default=0)
    service_bench.add_argument(
        "--no-fsync", action="store_true",
        help="run both daemons without fsync (faster; CI-friendly)",
    )
    service_bench.add_argument(
        "--state-dir", default=None,
        help="keep the two daemon state directories for inspection",
    )
    service_bench.add_argument("--output", default="BENCH_service.json")
    service_bench.set_defaults(handler=_cmd_service_bench)

    figures = subparsers.add_parser("figures", help="regenerate Figures 2 and 4")
    figures.set_defaults(handler=_cmd_figures)

    report = subparsers.add_parser(
        "report", help="full markdown evaluation report (EXPERIMENTS.md data)"
    )
    report.add_argument("--runs", type=int, default=11)
    report.set_defaults(handler=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":
    sys.exit(main())
