"""Judge a change against its parent from benchmark result files.

``python -m bench compare --parent P1.json P2.json ... --change C1.json
C2.json ...`` reads files written by ``python -m bench run`` (one or
more per side) and prints one row per (workload, metric): each side's
median and quartiles and a verdict under the bounds in
``BENCHMARK.json`` and :data:`bench.TIMINGS`:

- ``worse`` / ``better``: the change's median differs from the parent's
  by more than the metric's bound;
- ``unresolved``: the parent's own spread (quartile distance over
  median) exceeds the bound, so the bound cannot be judged; ``better``
  instead when every change run beats every parent run;
- ``unchanged``: otherwise.

The correctness gates (``verdict_mismatches``, ``failed_fraction``) must
stay 0, so any increase is ``worse``: a higher maximum or a higher mean
than the parent's, even when the median stays 0.

A gain smaller than the bound is judged by ``--claim`` alone.

``--claim WORKLOAD:METRIC`` applies the rule for claiming a gain: the
files are taken as alternating pairs (``P1``/``C1``, ``P2``/``C2``, ...),
and the claim holds when there are at least ten pairs, the change wins
at least nine tenths of them (ties count for neither side), the medians
differ by more than the parent's quartile distance, and no correctness
gate's total over every workload is higher for the change than for the
parent.

Exit status: 1 if any row is ``worse`` or the claim fails, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from bench import ROOT, TIMINGS

#: Correctness gates: must stay 0; any increase is a regression.
GATES = ("verdict_mismatches", "failed_fraction")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _worse(a: float, b: float, better: str) -> bool:
    """Is ``a`` worse than ``b``?"""
    return a > b if better == "lower" else a < b


def classify(parent: list[float], change: list[float], better: str,
             bound: float | None) -> str:
    """The verdict for one metric; ``bound=None`` marks a gate."""
    if bound is None:
        parent_mean, change_mean = statistics.fmean(parent), statistics.fmean(change)
        if max(change) > max(parent) or change_mean > parent_mean:
            return "worse"
        return "better" if change_mean < parent_mean else "unchanged"
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if (p3 - p1) / abs(pm) > bound:
        every_run_better = all(_worse(p, c, better) for p in parent for c in change)
        return "better" if every_run_better else "unresolved"
    if abs(cm - pm) / abs(pm) <= bound:
        return "unchanged"
    return "worse" if _worse(cm, pm, better) else "better"


def claim(parent: list[float], change: list[float], better: str,
          gates: dict[str, tuple[float, float]] | None = None) -> dict:
    """The alternating-pairs rule over runs given in pair order.

    ``gates`` maps each correctness gate to its (parent, change) totals;
    the claim fails when any change total is higher."""
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if _worse(p, c, better))
    losses = sum(1 for p, c in pairs if _worse(c, p, better))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    more_failures = sorted(
        gate for gate, (before, after) in (gates or {}).items() if after > before
    )
    holds = (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and _worse(pm, cm, better)
        and abs(cm - pm) > p3 - p1
        and not more_failures
    )
    return {"pairs": len(pairs), "wins": wins, "losses": losses,
            "more_failures": more_failures, "holds": holds}


def gate_totals(parent: dict, change: dict) -> dict[str, tuple[float, float]]:
    """Each correctness gate's (parent, change) total over every
    workload and run."""
    return {
        gate: tuple(
            sum(sum(values) for (_, name), values in side.items() if name == gate)
            for side in (parent, change)
        )
        for gate in GATES
    }


def load(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values``, one value per file."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        for workload, result in report["workloads"].items():
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
    return values


def directions() -> dict[str, tuple[str, float | None]]:
    """Metric name -> (better, bound) from ``BENCHMARK.json`` and
    :data:`bench.TIMINGS`, plus the correctness gates."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table: dict[str, tuple[str, float | None]] = {
        m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]
    }
    table.update({name: (better, bound) for name, (_, better, bound) in TIMINGS.items()})
    table.update({gate: ("lower", None) for gate in GATES})
    return table


def compare(parent: dict, change: dict, table: dict) -> list[dict]:
    rows = []
    for workload, name in sorted(set(parent) & set(change)):
        if name not in table:
            continue
        better, bound = table[name]
        p, c = parent[(workload, name)], change[(workload, name)]
        rows.append({
            "workload": workload, "metric": name,
            "parent": quartiles(p), "change": quartiles(c),
            "verdict": classify(p, c, better, bound),
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("--parent", nargs="+", required=True,
                        help="result files of the parent commit")
    parser.add_argument("--change", nargs="+", required=True,
                        help="result files of the change, in the same pair order")
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                        help="apply the alternating-pairs rule to this claim")
    arguments = parser.parse_args(argv)
    parent, change = load(arguments.parent), load(arguments.change)
    table = directions()
    rows = compare(parent, change, table)
    print(f"{'workload':9s} {'metric':20s} {'parent q1/median/q3':>32s}"
          f" {'change q1/median/q3':>32s}  verdict")
    for row in rows:
        cells = [
            "/".join(f"{v:.4g}" for v in row[side]) for side in ("parent", "change")
        ]
        print(f"{row['workload']:9s} {row['metric']:20s} {cells[0]:>32s}"
              f" {cells[1]:>32s}  {row['verdict']}")
    failed = any(row["verdict"] == "worse" for row in rows)
    if arguments.claim:
        workload, _, name = arguments.claim.partition(":")
        key = (workload, name)
        if key not in parent or key not in change or name not in table:
            print(f"claim {arguments.claim}: no such workload and metric")
            return 1
        verdict = claim(
            parent[key], change[key], table[name][0], gate_totals(parent, change)
        )
        print(f"claim {arguments.claim}: change won {verdict['wins']} of"
              f" {verdict['pairs']} pairs (lost {verdict['losses']})"
              + "".join(f", more {gate}" for gate in verdict["more_failures"])
              + f" → {'holds' if verdict['holds'] else 'not met'}")
        failed = failed or not verdict["holds"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
