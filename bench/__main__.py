"""``python -m bench``: run, trace and compare the benchmark.

- ``measure --workload W --seed N --seconds S --trace 0|1`` measures one
  workload; its last line is one JSON object with, for ``--trace 0``,
  every end-to-end metric of ``BENCHMARK.json`` and, for ``--trace 1``,
  every per-layer one. With ``--trace 0`` a ``timings:`` line before it
  gives the timings of :data:`bench.TIMINGS`.
- ``run --seed N`` measures every workload and prints a table: the
  end-to-end metrics, the timings and the correctness gates.
- ``trace --seed N`` traces every workload, prints the per-layer metrics
  and writes span files to ``bench/out``.
- ``compare --parent FILES --change FILES`` judges a change (see
  :mod:`bench.compare`).

Each workload runs in fresh child processes (``python -m
bench.workloads``): set-up runs three times per measurement and
``setup_s`` is the median, so work moved into set-up shows.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from bench import OUT, ROOT, TIMINGS, BenchError, use_checkout
from bench.workloads import WORKLOADS

#: Set-ups per measurement; ``setup_s`` is their median.
SETUPS = 3
#: A measurement must finish within this many seconds.
BUDGET_S = 170.0


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def _child(command: list[str], deadline: float) -> dict:
    """Run one child in its own process group; kill the whole group if
    it outlives ``deadline``. Returns the child's JSON report."""
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{' '.join(command[2:])} ran out of time") from exc
        raise
    if process.returncode != 0:
        raise BenchError(f"{' '.join(command[2:])} exited with {process.returncode}")
    lines = stdout.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(command[2:])} printed no report")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> dict:
    """Measure (or trace) one workload in fresh processes.

    Returns the contract result (``correct``/``attempted``/``failed``/
    ``metrics``, with the units from ``BENCHMARK.json``) plus the
    untraced run's ``timings`` (:data:`bench.TIMINGS`), ``samples``,
    ``problems`` and the counts that make a run incorrect."""
    use_checkout()
    spec = load_spec()
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    timings = {} if trace else {name: unit for name, (unit, _, _) in TIMINGS.items()}
    deadline = time.monotonic() + BUDGET_S
    command = [
        sys.executable, "-m", "bench.workloads", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--scale", str(scale),
    ]
    setups = []
    if not trace:
        setups = [
            _child(command + ["--setup-only"], deadline)["setup_s"]
            for _ in range(SETUPS - 1)
        ]
    report = _child(command + ["--trace", str(int(trace))], deadline)
    measured = report["metrics"]
    if not trace:
        setups.append(report["setup_s"])
        measured["setup_s"] = statistics.median(setups)
        report["samples"]["setup_s"] = len(setups)
    if set(measured) != set(wanted) | set(timings):
        raise BenchError(
            f"{workload}: metrics {sorted(measured)} do not match "
            f"BENCHMARK.json {sorted(wanted)} and timings {sorted(timings)}"
        )
    return {
        "correct": (
            report["failed"] == 0 and report["verdict_mismatches"] == 0
            and report["trace_mismatches"] == 0 and not report["invalid"]
        ),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": measured[name], "unit": unit}
            for name, unit in wanted.items()
        },
        "timings": {
            name: {"value": measured[name], "unit": unit}
            for name, unit in timings.items()
        },
        "samples": report["samples"],
        "verdict_mismatches": report["verdict_mismatches"],
        "trace_mismatches": report["trace_mismatches"],
        "invalid": report["invalid"],
        "problems": report["problems"],
        "span_file": report.get("span_file"),
        "missing_targets": report.get("missing_targets", []),
    }


def _contract_line(result: dict) -> str:
    return json.dumps({
        key: result[key] for key in ("correct", "attempted", "failed", "metrics")
    })


def _print_problems(workload: str, result: dict) -> None:
    for problem in result["problems"]:
        print(f"bench: {workload}: {problem}", file=sys.stderr)


def _cmd_measure(arguments) -> int:
    result = measure(
        arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace)
    )
    _print_problems(arguments.workload, result)
    if result["timings"]:
        print(f"timings: {json.dumps(result['timings'])}")
    print(f"samples: {json.dumps(result['samples'])}")
    print(_contract_line(result))
    return 0 if result["correct"] else 1


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _sweep(arguments, trace: bool) -> int:
    spec = load_spec()
    seconds = arguments.seconds if arguments.seconds else spec["run_seconds"]
    results: dict[str, dict] = {}
    started = time.monotonic()
    for workload in arguments.workload or WORKLOADS:
        result = measure(workload, arguments.seed, seconds, trace)
        result["metrics"].update(result.pop("timings"))
        if not trace:
            # Correctness gates: both must stay 0, so they are checks
            # beside the end-to-end metrics rather than metrics with a bound.
            result["metrics"]["verdict_mismatches"] = {
                "value": result["verdict_mismatches"], "unit": "count",
            }
            result["metrics"]["failed_fraction"] = {
                "value": result["failed"] / result["attempted"], "unit": "fraction",
            }
        results[workload] = result
        _print_problems(workload, result)
        print(f"{workload}: {'correct' if result['correct'] else 'INCORRECT'}, "
              f"{result['attempted']} attempted, {result['failed']} failed, "
              f"{result['verdict_mismatches']} verdict mismatches, "
              f"{result['trace_mismatches']} traced signatures differing"
              + "".join(f", invalid: {reason}" for reason in result["invalid"]))
        for name, metric in result["metrics"].items():
            print(f"  {name:32s} {_format(metric['value']):>14s} {metric['unit']}")
        print(f"  samples: {json.dumps(result['samples'])}")
        if result["span_file"]:
            coverage = result["metrics"]["trace.coverage"]["value"]
            print(f"  spans: {result['span_file']}"
                  + ("" if coverage >= 0.95 else "  (coverage below 0.95)"))
        for target in result["missing_targets"]:
            print(f"  not traced (the program has no {target})")
    output = arguments.output or OUT / (
        f"{'trace' if trace else 'run'}-seed{arguments.seed}.json"
    )
    OUT.mkdir(parents=True, exist_ok=True)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump({
            "seed": arguments.seed, "seconds": seconds,
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "wall_s": time.monotonic() - started, "workloads": results,
        }, handle, indent=1)
    print(f"wrote {output}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    one = commands.add_parser("measure", help="measure one workload (one JSON line)")
    one.add_argument("--workload", choices=WORKLOADS, required=True)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)

    for name, text in (("run", "measure every workload"),
                       ("trace", "trace every workload, write span files")):
        sweep = commands.add_parser(name, help=text)
        sweep.add_argument("--seed", type=int, default=0)
        sweep.add_argument("--seconds", type=float, default=None,
                           help="per workload (default: BENCHMARK.json run_seconds)")
        sweep.add_argument("--workload", choices=WORKLOADS, action="append",
                           help="only this workload (repeatable)")
        sweep.add_argument("--output", default=None,
                           help="result file (default bench/out/<command>-seed<N>.json)")

    commands.add_parser("compare", help="judge a change against its parent",
                        add_help=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare_main

        return compare_main(argv[1:])
    arguments = build_parser().parse_args(argv)
    try:
        if arguments.command == "measure":
            return _cmd_measure(arguments)
        return _sweep(arguments, trace=arguments.command == "trace")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def _terminate(signum, frame) -> None:
    # Raise instead of dying outright, so a running child's process
    # group is killed on the way out (see _child).
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
