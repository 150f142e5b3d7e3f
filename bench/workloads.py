"""The four workloads, and the child process that runs one of them.

Each workload makes its inputs from the seed, sets up, warms up on
inputs outside the measured set, then measures for a given number of
seconds and checks every result against a reference the run does not
compute: the generator's expected signatures and diffvet verdict
classes, the paper's Table 2 verdicts, and the synthetic shapes'
by-construction flow counts.

- ``fleet``: closed loop, batch, cache off. Store-scale intake of small
  generated addons; fixed per-addon costs dominate.
- ``large``: closed loop, one in-process client, ``repro.api.vet`` over
  the curated paper addons and large synthetic programs; fixpoint and
  PDG dominate, and the batch and service layers are bypassed.
- ``updates``: closed loop, batch, cache on. Generated update pairs with
  resubmissions: fast lane, certificate, full re-analysis, cache hits.
- ``service``: open loop against the vetting daemon; the only workload
  with a durable queue, a supervised pool and queueing delay.

Every timing statistic covers the whole measured run. Generated inputs
enter in blocks with a fixed mix of kinds (:func:`stratified`): the
kinds differ up to tenfold in cost, and a drawn mix would move the
statistics with the seed rather than with the program.

Run one workload in a fresh process with
``python -m bench.workloads --workload NAME --seed N --seconds S``; it
prints one JSON line of metric values. ``python -m bench measure`` wraps
that for the benchmark's contract and attaches the units.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from bench import OUT, ROOT, SRC, BenchError, use_checkout  # noqa: E402

WORKLOADS = ("fleet", "large", "updates", "service")
NPROC = os.cpu_count() or 1
#: Inputs each workload warms up on, drawn from outside the measured set.
WARMUP = 20


# ----------------------------------------------------------------------
# Input mixes

#: Slots per block of each kind of input: the generator's own shares,
#: measured over 6000 addons and 3000 updates of seed 0.
ADDON_MIX = {  # (single or bundle, carries a flow, dynamic code)
    ("bundle", False, False): 2,
    ("bundle", True, False): 3,
    ("single", False, False): 5,
    ("single", True, False): 8,
    ("single", True, True): 2,
}
UPDATE_MIX = {
    "dead-code": 3, "reorder": 2, "rename": 1, "inject-flow": 1,
    "remove-flow": 1, "add-guard": 1, "strip-guard": 1,
}


def addon_kind(addon) -> tuple[str, bool, bool]:
    return addon.kind, bool(addon.expected_entries), addon.dynamic


def stratified(pool: list, kind_of, mix: dict, count: int,
               rng: random.Random) -> tuple[list, list]:
    """``count`` items of ``pool`` in blocks that each hold ``mix[kind]``
    items of every kind, in a seeded order within each block. Returns
    the chosen items and the rest of the pool."""
    queues: dict = {}
    for item in pool:
        queues.setdefault(kind_of(item), []).append(item)
    block = [kind for kind, slots in mix.items() for _ in range(slots)]
    chosen: list = []
    while len(chosen) < count:
        order = block[:]
        rng.shuffle(order)
        for kind in order[:count - len(chosen)]:
            if not queues.get(kind):
                raise RuntimeError(f"too few generated inputs of kind {kind}")
            chosen.append(queues[kind].pop(0))
    taken = {id(item) for item in chosen}
    return chosen, [item for item in pool if id(item) not in taken]


# ----------------------------------------------------------------------
# Statistics


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its reaped children, MB."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0


def _scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(count * scale))


def _alternating(index: int) -> tuple[bool, bool]:
    """Untraced-then-traced on even steps, traced-then-untraced on odd
    ones, so drift during a run does not favour either side."""
    return (False, True) if index % 2 == 0 else (True, False)


class Result:
    """What one measured (or traced) pass produced.

    Four separate counts make a pass incorrect: tasks that failed,
    results that differ from their reference (``mismatches``), traced
    results that differ from their untraced twins, and reasons the run
    itself is invalid. ``problems`` describes each, human-readable."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        #: How many samples the timing metrics summarize.
        self.samples: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.trace_mismatches = 0
        self.invalid: list[str] = []
        self.problems: list[str] = []

    def fail(self, text: str) -> None:
        self.failed += 1
        self.problems.append(text)

    def mismatch(self, text: str) -> None:
        self.mismatches += 1
        self.problems.append(text)

    def trace_mismatch(self, text: str) -> None:
        self.trace_mismatches += 1
        self.problems.append(text)

    def invalidate(self, reason: str) -> None:
        self.invalid.append(reason)
        self.problems.append(f"invalid run: {reason}")

    def to_json(self) -> dict:
        return {
            "metrics": self.metrics,
            "samples": self.samples,
            "attempted": self.attempted,
            "failed": self.failed,
            "verdict_mismatches": self.mismatches,
            "trace_mismatches": self.trace_mismatches,
            "invalid": self.invalid,
            "problems": self.problems[:20],
        }


# ----------------------------------------------------------------------
# Batch workloads: fleet and updates


def _ms(outcomes: list) -> list[float]:
    return [o.total_time * 1000.0 for o in outcomes]


class _BatchWorkload:
    """A closed loop of ``vet_many(workers=nproc)`` sweeps over an
    endless, seeded stream of tasks (the input pool repeats if a run
    outlasts it).

    Latency percentiles count the tasks analyzed in full: a prefilter
    skip, a fast-lane approval or a cache hit is an order of magnitude
    cheaper, and with those mixed in the median sits on the edge between
    two clusters. ``vet_geomean_ms`` counts every task the run computed
    (a cache hit carries the times of the run that filled the entry).
    ``addons_per_s`` is tasks completed per wall second of the run."""

    sweep_size = 250
    use_cache = False

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.sweep = _scaled(self.sweep_size, scale, floor=5)
        self.scratch = Path(tempfile.mkdtemp(prefix="batch-", dir=_scratch_root()))
        self._caches = 0

    def stream(self):
        """Endless iterator of measured inputs."""
        raise NotImplementedError

    def task(self, item):
        raise NotImplementedError

    def check(self, item, outcome, result: Result) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.sweep_once(self.warm, NPROC, self.new_cache())

    def new_cache(self) -> Path | None:
        """A fresh, empty result-cache directory (``None``: cache off)."""
        if not self.use_cache:
            return None
        self._caches += 1
        return self.scratch / f"cache-{self._caches}"

    def sweep_once(self, chunk: list, workers: int, cache_dir) -> tuple[list, float]:
        """One ``vet_many`` call; returns its outcomes and wall time."""
        from repro import batch

        tasks = [self.task(item) for item in chunk]
        started = time.perf_counter()
        outcomes = batch.vet_many(
            tasks, workers=workers, use_cache=self.use_cache, cache_dir=cache_dir
        )
        return outcomes, time.perf_counter() - started

    def closed_loop(self, seconds: float, workers: int, keep) -> tuple[list, float]:
        """Sweep until ``seconds`` have passed, against a fresh cache.
        ``keep(chunk, outcomes, seconds)`` reduces each sweep to what the
        caller needs; returns the kept values and the loop's wall time."""
        cache_dir = self.new_cache()
        stream = self.stream()
        kept: list = []
        gc.collect()
        started = time.perf_counter()
        while not kept or time.perf_counter() - started < seconds:
            chunk = [next(stream) for _ in range(self.sweep)]
            kept.append(keep(chunk, *self.sweep_once(chunk, workers, cache_dir)))
        return kept, time.perf_counter() - started

    def judge(self, chunk: list, outcomes: list, result: Result) -> None:
        result.attempted += len(chunk)
        for item, outcome in zip(chunk, outcomes):
            if not outcome.ok:
                result.fail(f"{outcome.name}: {outcome.failure}: {outcome.error}")
            else:
                self.check(item, outcome, result)

    def measure(self, seconds: float) -> Result:
        result = Result()
        latency_ms: list[float] = []
        vet_ms: list[float] = []

        def keep(chunk: list, outcomes: list, took: float) -> None:
            # Outcomes are checked and dropped sweep by sweep: kept, they
            # would grow this process, and with it every forked worker.
            self.judge(chunk, outcomes, result)
            computed = [o for o in outcomes if o.ok and not o.cached]
            latency_ms.extend(
                _ms([o for o in computed if not (o.prefiltered or o.incremental)])
            )
            vet_ms.extend(_ms(computed))

        sweeps, wall = self.closed_loop(seconds, NPROC, keep)
        result.metrics.update(
            peak_rss_mb=peak_rss_mb(),
            addons_per_s=result.attempted / wall,
            latency_p50_ms=statistics.median(latency_ms),
            latency_p90_ms=p90(latency_ms),
            vet_geomean_ms=geomean(vet_ms),
        )
        result.samples.update(
            tasks=result.attempted, sweeps=len(sweeps),
            analyzed=len(latency_ms), computed=len(vet_ms),
        )
        return result

    def trace(self, seconds: float, tracer) -> tuple[Result, float]:
        """A short untraced pooled pass (pool efficiency), then each of its
        sweeps twice in-process, untraced and traced in alternating order,
        each side with its own cache: the tracing overhead compares the
        two sides. Returns the traced side and its wall."""
        result = Result()
        pooled, _ = self.closed_loop(seconds / 5.0, NPROC, lambda *sweep: sweep)
        busy = sum(o.total_time for _, outs, _ in pooled for o in outs if not o.cached)
        result.metrics["batch.pool_efficiency"] = busy / (
            sum(took for _, _, took in pooled) * NPROC
        )
        walls = {False: 0.0, True: 0.0}
        caches = {False: self.new_cache(), True: self.new_cache()}
        gc.collect()
        for index, (chunk, outcomes, _) in enumerate(pooled):
            self.judge(chunk, outcomes, result)
            twins = {}
            for with_trace in _alternating(index):
                with tracer if with_trace else contextlib.nullcontext():
                    twins[with_trace], took = self.sweep_once(chunk, 1, caches[with_trace])
                walls[with_trace] += took
                self.judge(chunk, twins[with_trace], result)
            for plain, traced in zip(twins[False], twins[True]):
                if plain.signature_text != traced.signature_text:
                    result.trace_mismatch(f"{plain.name}: traced signature differs")
        result.metrics["trace.overhead"] = walls[True] / walls[False] - 1.0
        return result, walls[True]

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class Fleet(_BatchWorkload):
    """Generated addons and MV3 bundles, prefilter on, cache off."""

    def __init__(self, seed: int, scale: float) -> None:
        from repro.corpusgen.generator import generate_corpus

        super().__init__(seed, scale)
        count = _scaled(6000, scale, floor=20)
        self.inputs, spare = stratified(
            generate_corpus(count * 6 // 5 + 60, seed), addon_kind, ADDON_MIX,
            count, random.Random(f"bench-fleet:{seed}"),
        )
        self.warm = spare[:_scaled(WARMUP, scale)]

    def stream(self):
        return itertools.cycle(self.inputs)

    def task(self, addon):
        from repro.batch import VetTask

        return VetTask(name=addon.name, source=addon.source)

    def check(self, addon, outcome, result: Result) -> None:
        if outcome.signature_text != addon.expected_signature:
            result.mismatch(f"{addon.name}: signature differs from the generator's")


class Updates(_BatchWorkload):
    """Generated update pairs above the fast-lane gate, explicit
    baselines, resubmissions of earlier pairs, cache on."""

    sweep_size = 50
    #: Three 50-task sweeps hold enough full analyses for a p90.
    window = 3
    use_cache = True
    #: Resubmissions of earlier pairs per block of tasks (130 of 578).
    resubmits = (9, 40)

    def __init__(self, seed: int, scale: float) -> None:
        from repro.corpusgen.generator import generate_updates

        super().__init__(seed, scale)
        count = _scaled(1200, scale, floor=10)
        self.inputs, spare = stratified(
            generate_updates(count * 13 // 10 + 40, seed), lambda p: p.mutation,
            UPDATE_MIX, count, random.Random(f"bench-updates-mix:{seed}"),
        )
        self.warm = spare[:_scaled(WARMUP, scale)]

    def stream(self):
        rng = random.Random(f"bench-updates:{self.seed}")
        again, block = self.resubmits
        fresh = 0
        while True:
            repeats = set(rng.sample(range(block), again))
            for slot in range(block):
                if slot in repeats and fresh:
                    yield self.inputs[rng.randrange(min(fresh, len(self.inputs)))]
                else:
                    yield self.inputs[fresh % len(self.inputs)]
                    fresh += 1

    def task(self, pair):
        from repro.batch import VetTask

        return VetTask(
            name=pair.name, source=pair.new_source,
            baseline_source=pair.old_source,
            baseline_signature_text=pair.old_expected,
        )

    def check(self, pair, outcome, result: Result) -> None:
        if outcome.signature_text != pair.new_expected:
            result.mismatch(f"{pair.name}: signature differs from the generator's")
        elif outcome.diff_verdict not in pair.expected_verdicts:
            result.mismatch(
                f"{pair.name}: diff verdict {outcome.diff_verdict}, "
                f"expected one of {pair.expected_verdicts}"
            )


# ----------------------------------------------------------------------
# large: in-process, one client


class Large:
    """Whole rounds over the ten curated paper addons and the flat and
    chain synthetic shapes at four sizes, in a seeded order per round.

    ``addons_per_s`` is calls per wall second of the run, the latency
    percentiles are over every call, and ``vet_geomean_ms`` is the
    geometric mean over programs of each program's median call."""

    sizes = (8, 16, 32, 64)

    def __init__(self, seed: int, scale: float) -> None:
        from repro.addons import CORPUS
        from repro.corpusgen.generator import generate_corpus
        from repro.evaluation.scaling import SHAPES, expected_flows

        self.programs = [
            (spec.name, spec.source(), spec.manual_signature, spec.real_extras,
             ("verdict", spec.expected_verdict))
            for spec in CORPUS
        ]
        for size in self.sizes:
            for shape in ("flat", "chain"):
                self.programs.append((
                    f"{shape}{size}", SHAPES[shape](size), None, frozenset(),
                    ("flows", expected_flows(shape, size)),
                ))
        self.warm = [a.source for a in generate_corpus(_scaled(WARMUP, scale), seed)]
        self.rng = random.Random(f"bench-large:{seed}")

    def warm_up(self) -> None:
        from repro import api

        for source in self.warm:
            api.vet(source)

    @staticmethod
    def vet(program: tuple) -> tuple:
        """One ``repro.api.vet`` call: ``(program, ms, signature, got)``,
        where ``got`` is what the reference checks. The report itself is
        dropped: kept, a run's reports would fill the heap and slow every
        later garbage collection."""
        from repro import api

        _, text, manual, extras, (kind, _) = program
        before = time.perf_counter()
        report = api.vet(text, manual=manual, real_extras=extras)
        ms = (time.perf_counter() - before) * 1000.0
        if kind == "verdict":
            got = report.comparison.verdict.value
        else:
            got = len(report.signature.flows)
        return program, ms, report.signature.render(), got

    def closed_loop(self, seconds: float, step=None) -> tuple[list[tuple], float]:
        """Whole rounds until ``seconds`` have passed. ``step(index,
        program)`` returns the calls for one program (default: one
        :meth:`vet`). Returns every call and the loop's wall time."""
        step = step or (lambda index, program: [self.vet(program)])
        calls: list[tuple] = []
        gc.collect()
        started = time.perf_counter()
        while not calls or time.perf_counter() - started < seconds:
            order = list(self.programs)
            self.rng.shuffle(order)
            for index, program in enumerate(order):
                calls.extend(step(index, program))
        return calls, time.perf_counter() - started

    def judge(self, calls, result: Result) -> None:
        result.attempted += len(calls)
        for (name, _, _, _, (kind, expected)), _, _, got in calls:
            if got != expected:
                result.mismatch(f"{name}: {kind} {got}, expected {expected}")

    def measure(self, seconds: float) -> Result:
        result = Result()
        calls, wall = self.closed_loop(seconds)
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        self.judge(calls, result)
        times: dict[str, list[float]] = {}
        for program, ms, _, _ in calls:
            times.setdefault(program[0], []).append(ms)
        every = [ms for each in times.values() for ms in each]
        result.metrics.update(
            addons_per_s=len(calls) / wall,
            latency_p50_ms=statistics.median(every),
            latency_p90_ms=p90(every),
            vet_geomean_ms=geomean([statistics.median(each) for each in times.values()]),
        )
        result.samples.update(calls=len(calls), programs=len(times))
        return result

    def trace(self, seconds: float, tracer) -> tuple[Result, float]:
        """Each call twice, untraced and traced in alternating order: the
        tracing overhead compares the two sides. Returns the traced side
        and its wall."""
        result = Result()

        def pair(index: int, program: tuple) -> list[tuple]:
            calls = []
            for with_trace in _alternating(index):
                tracer.request = program[0]
                with tracer if with_trace else contextlib.nullcontext():
                    calls.append((with_trace, self.vet(program)))
            return calls

        calls, _ = self.closed_loop(seconds, pair)
        plain = [call for with_trace, call in calls if not with_trace]
        traced = [call for with_trace, call in calls if with_trace]
        self.judge(plain, result)
        self.judge(traced, result)
        for (program, _, before, _), (_, _, after, _) in zip(plain, traced):
            if before != after:
                result.trace_mismatch(f"{program[0]}: traced signature differs")
        traced_wall = sum(call[1] for call in traced) / 1000.0
        result.metrics["batch.pool_efficiency"] = 0.0
        result.metrics["trace.overhead"] = (
            traced_wall / (sum(call[1] for call in plain) / 1000.0) - 1.0
        )
        return result, traced_wall

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# service: open loop against the daemon


class Service:
    """20 jobs/s against ``python -m repro.service.daemon``. Every block
    of four jobs holds one generated update with an explicit baseline, at
    a seeded position, and three fresh generated addons or bundles.

    Latency runs from a job's due time to the client seeing it terminal,
    so a stall also delays the jobs behind it; the statistics cover every
    job."""

    rate = 20.0
    block = 4
    #: Mean status poll period per outstanding job; each wait is drawn
    #: from 0.5-1.5 times it, so polls do not lock onto the submission
    #: schedule and round every latency up to the same step.
    poll = 0.005
    #: A run whose generator fell further behind schedule is invalid.
    max_late_ms = 100.0

    def __init__(self, seed: int, scale: float, seconds: float) -> None:
        from repro.batch import VetTask
        from repro.corpusgen.generator import generate_corpus, generate_updates

        count = max(1, round(self.rate * seconds))
        updates = -(-count // self.block)
        rng = random.Random(f"bench-service:{seed}")
        addons, spare = stratified(
            generate_corpus(3 * count + 60, seed), addon_kind, ADDON_MIX,
            count - updates, rng,
        )
        pairs, _ = stratified(
            generate_updates(4 * updates + 40, seed), lambda p: p.mutation,
            UPDATE_MIX, updates, rng,
        )
        self.warm = [
            VetTask(name=a.name, source=a.source) for a in spare[:_scaled(WARMUP, scale)]
        ]
        fresh = iter([
            (VetTask(name=a.name, source=a.source), a.expected_signature, None)
            for a in addons
        ])
        changed = iter([
            (VetTask(name=p.name, source=p.new_source, baseline_source=p.old_source,
                     baseline_signature_text=p.old_expected),
             p.new_expected, p.expected_verdicts)
            for p in pairs
        ])
        self.jobs = []
        for start in range(0, count, self.block):
            size = min(self.block, count - start)
            slot = rng.randrange(size)
            self.jobs.extend(
                next(changed) if k == slot else next(fresh) for k in range(size)
            )
        self.jitter = random.Random(f"bench-service-poll:{seed}")
        self.directory = Path(tempfile.mkdtemp(prefix="service-", dir=_scratch_root()))
        self.daemon = StdioDaemon(self.directory)

    def warm_up(self) -> None:
        outstanding = {self.daemon.submit(task) for task in self.warm}
        while outstanding:
            time.sleep(self.poll)
            outstanding = {
                job_id for job_id in outstanding
                if not self.daemon.call("status", job_id=job_id)["terminal"]
            }

    def open_loop(self) -> dict:
        """Submit on schedule, poll outstanding jobs, and time each job
        from when it was due to its terminal status."""
        daemon, rate, count = self.daemon, self.rate, len(self.jobs)
        clock = time.monotonic
        ids: list[str | None] = [None] * count
        latency: list[float | None] = [None] * count
        states: list[str | None] = [None] * count
        submit_ms: list[float] = []
        late = 0.0
        outstanding: dict[str, int] = {}
        gc.collect()
        start = clock()
        give_up = start + count / rate + 60.0
        submitted = 0
        last_terminal = start

        def due(index: int) -> float:
            return start + index / rate

        while (submitted < count or outstanding) and clock() < give_up:
            cycle = clock()
            while submitted < count and due(submitted) <= clock():
                before = clock()
                late = max(late, before - due(submitted))
                job_id = daemon.submit(self.jobs[submitted][0])
                submit_ms.append((clock() - before) * 1000.0)
                ids[submitted] = job_id
                outstanding[job_id] = submitted
                submitted += 1
            for job_id, index in list(outstanding.items()):
                if submitted < count and due(submitted) <= clock():
                    break  # submissions first: the schedule must hold
                status = daemon.call("status", job_id=job_id)
                if status["terminal"]:
                    last_terminal = clock()
                    latency[index] = last_terminal - due(index)
                    states[index] = status["state"]
                    del outstanding[job_id]
            wake = cycle + self.poll * self.jitter.uniform(0.5, 1.5)
            if submitted < count:
                wake = min(wake, due(submitted))
            pause = wake - clock()
            if pause > 0:
                time.sleep(pause)
        return {
            "ids": ids, "latency": latency, "states": states,
            "submit_ms": submit_ms, "late_ms": late * 1000.0,
            "wall": last_terminal - start,
        }

    def _run(self) -> tuple[Result, dict]:
        result = Result()
        run = self.open_loop()
        result.attempted = len(self.jobs)
        latencies, vet_ms, overhead = [], [], []
        for index, (task, expected, verdicts) in enumerate(self.jobs):
            if run["states"][index] != "done":
                result.fail(f"{task.name}: ended {run['states'][index]}")
                continue
            outcome = self.daemon.call("result", job_id=run["ids"][index])["outcome"]
            vet = sum((outcome.get("times") or {}).values()) * 1000.0
            latency = run["latency"][index] * 1000.0
            latencies.append(latency)
            vet_ms.append(vet)
            overhead.append(latency - vet)
            if not outcome.get("ok"):
                result.fail(f"{task.name}: {outcome.get('failure')}")
            elif outcome.get("signature_text") != expected:
                result.mismatch(f"{task.name}: signature differs from the generator's")
            elif verdicts is not None and outcome.get("diff_verdict") not in verdicts:
                result.mismatch(f"{task.name}: diff verdict {outcome.get('diff_verdict')}")
        if run["late_ms"] > self.max_late_ms:
            result.invalidate(f"generator {run['late_ms']:.1f} ms late")
        run["overhead_ms"] = overhead
        result.metrics.update(
            addons_per_s=len(latencies) / run["wall"],
            latency_p50_ms=statistics.median(latencies),
            latency_p90_ms=p90(latencies),
            vet_geomean_ms=geomean(vet_ms),
        )
        result.samples["jobs"] = len(latencies)
        return result, run

    def measure(self, seconds: float) -> Result:
        result, _ = self._run()
        self.close()  # reaps the daemon, so its peak RSS counts
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        return result

    def trace(self, seconds: float, tracer) -> tuple[Result, float]:
        """The service runs in other processes, so its per-layer numbers
        are the client's own timings; no spans are recorded."""
        result, run = self._run()
        result.metrics = {
            "service.submit_ms_p50": statistics.median(run["submit_ms"]),
            "service.overhead_ms_p50": statistics.median(run["overhead_ms"]),
            "service.generator_late_ms": run["late_ms"],
            "batch.pool_efficiency": 0.0,
            "trace.overhead": 0.0,
        }
        return result, run["wall"]

    def close(self) -> None:
        self.daemon.close()
        shutil.rmtree(self.directory, ignore_errors=True)


class StdioDaemon:
    """``python -m repro.service.daemon`` behind its newline-delimited
    JSON-RPC door on stdin/stdout: one pipe, and a status poll costs the
    daemon a line instead of a TCP connection and an HTTP request."""

    def __init__(self, directory: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with open(directory / "daemon-err.log", "wb") as errors:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.service.daemon", "--dir", str(directory),
                 "--stdio", "--workers", str(NPROC), "--no-fsync"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=errors,
                env=env, cwd=ROOT,
            )
        self._requests = 0
        self.call("stats")  # answers once the daemon is up

    def call(self, method: str, **params) -> dict:
        self._requests += 1
        request = {"id": self._requests, "method": method, "params": params}
        self.process.stdin.write(json.dumps(request).encode("utf-8") + b"\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"daemon exited with {self.process.wait()}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"daemon refused {method}: {reply['error']}")
        return reply["result"]

    def submit(self, task) -> str:
        from repro.service.jobs import task_to_json

        return self.call("submit", task=task_to_json(task))["id"]

    def close(self) -> None:
        """Shut the daemon down and reap it (it reaps its workers)."""
        if self.process.poll() is None:
            try:
                self.call("shutdown")
                self.process.stdin.close()
                self.process.wait(timeout=30)
            except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired):
                self.process.kill()
        self.process.wait()
        self.process.stdout.close()


def _scratch_root() -> Path:
    root = OUT / "tmp"
    root.mkdir(parents=True, exist_ok=True)
    return root


def build(workload: str, seed: int, scale: float, seconds: float):
    if workload == "fleet":
        return Fleet(seed, scale)
    if workload == "large":
        return Large(seed, scale)
    if workload == "updates":
        return Updates(seed, scale)
    return Service(seed, scale, seconds)


# ----------------------------------------------------------------------
# The child process


def run_child(workload: str, seed: int, seconds: float, scale: float,
              trace: bool, setup_only: bool) -> dict:
    """Set up, warm up, and (unless ``setup_only``) measure or trace one
    workload; returns the child's JSON report."""
    subject = build(workload, seed, scale, seconds)
    try:
        subject.warm_up()
        setup_s = time.perf_counter() - _STARTED
        if setup_only:
            return {"setup_s": setup_s}
        if trace:
            return _traced(workload, seed, seconds, subject)
        report = subject.measure(seconds).to_json()
        report["setup_s"] = setup_s
        return report
    finally:
        subject.close()


def _traced(workload: str, seed: int, seconds: float, subject) -> dict:
    from bench.tracing import Tracer, span_metrics, spans_json

    tracer = Tracer()
    result, wall = subject.trace(seconds, tracer)
    metrics = span_metrics(tracer.spans, wall)
    metrics.update(dict.fromkeys(
        ("service.submit_ms_p50", "service.overhead_ms_p50", "service.generator_late_ms"),
        0.0,
    ))
    metrics.update(result.metrics)
    result.metrics = metrics
    report = result.to_json()
    report["missing_targets"] = tracer.missing
    if tracer.spans:
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{workload}.json"
        path.write_text(json.dumps({
            "workload": workload, "seed": seed, "wall_s": wall,
            "missing_targets": tracer.missing,
            "spans": spans_json(tracer.spans),
        }))
        report["span_file"] = str(path.relative_to(ROOT))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.workloads")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    arguments = parser.parse_args(argv)
    try:
        use_checkout()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report = run_child(
        arguments.workload, arguments.seed, arguments.seconds, arguments.scale,
        bool(arguments.trace), arguments.setup_only,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
