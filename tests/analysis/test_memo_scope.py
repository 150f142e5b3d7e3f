"""The pmap merge memo lives for one analysis and holds only live facts.

An entry goes as soon as one of its operand nodes dies, so few entries
are left when an analysis ends. Those few pin their results, so each
exit path of :meth:`Interpreter.run` — normal return, a raised budget
trip, a salvaged trip, any other exception — must still leave the memo
empty, and repeated vets in one process must not accumulate memory.
Within one analysis, a hit must answer exactly what a fresh merge
would, and dropping dead entries must lose no hit: a vet does the same
merge work as when the memo held every entry to the end.
"""

import gc
import json
import subprocess
import sys
import tracemalloc

import pytest

from repro.analysis import AnalysisBudgetExceeded, analyze, interpreter
from repro.api import vet
from repro.browser import BrowserEnvironment
from repro.domains import pmap
from repro.domains.pmap import PMap
from repro.evaluation.scaling import synthesize_chain
from repro.faults import Budget
from repro.ir import lower
from repro.js import parse
from tests.service.stdio_daemon import source_env

PROGRAM = lower(parse(synthesize_chain(4)))  # ~600 fixpoint steps


def _analyze(**kwargs):
    return analyze(PROGRAM, BrowserEnvironment(), **kwargs)


def _memo_entries() -> int:
    return len(pmap._MERGE_MEMO)


@pytest.fixture
def memo_at_exit(monkeypatch):
    """Records how many memo entries each analysis inserted by the time
    it ended, so the tests can tell a dropped memo from one never
    filled. (Counting the entries left at the end would not do: most
    die with their operands long before.)"""
    inserted = [0]
    seen = []

    class CountingRef(pmap._OperandRef):
        __slots__ = ()

        def __new__(cls, node, callback):
            inserted[0] += 1
            return super().__new__(cls, node, callback)

    def recording_drop():
        seen.append(inserted[0] // 2)  # two references per entry
        inserted[0] = 0
        pmap.drop_merge_memo()

    monkeypatch.setattr(pmap, "_OperandRef", CountingRef)
    monkeypatch.setattr(interpreter, "drop_merge_memo", recording_drop)
    return seen


def test_memo_empty_after_analysis_returns(memo_at_exit):
    result = _analyze()
    assert not result.degradations
    assert memo_at_exit[0] > 0
    assert _memo_entries() == 0


def test_memo_empty_after_budget_exceeded(memo_at_exit):
    with pytest.raises(AnalysisBudgetExceeded):
        _analyze(budget=Budget(max_steps=200))
    assert memo_at_exit[0] > 0
    assert _memo_entries() == 0


def test_memo_empty_after_salvaged_trip(memo_at_exit):
    result = _analyze(budget=Budget(max_steps=200), salvage=True)
    assert result.degradations
    assert memo_at_exit[0] > 0
    assert _memo_entries() == 0


def test_memo_empty_after_any_exception(memo_at_exit, monkeypatch):
    process = interpreter.Interpreter._process
    calls = []

    def failing_process(self, node):
        calls.append(node)
        if len(calls) > 200:
            raise RuntimeError("injected")
        process(self, node)

    monkeypatch.setattr(interpreter.Interpreter, "_process", failing_process)
    with pytest.raises(RuntimeError, match="injected"):
        _analyze()
    assert memo_at_exit[0] > 0
    assert _memo_entries() == 0


def test_repeated_vets_do_not_accumulate_memory():
    source = synthesize_chain(32)
    tracemalloc.start()
    try:
        current = []
        for _ in range(6):
            vet(source)
            gc.collect()
            current.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    # A merge memo that outlived its analysis used to pin ~2 MB of
    # entries and trie nodes per vet of this program; the slack allows
    # for lazily filled caches, not for that.
    assert current[-1] - current[0] < 512 * 1024, current


def _join(existing: frozenset, incoming: frozenset) -> frozenset:
    return existing if incoming <= existing else existing | incoming


STORED = PMap.from_dict({n: frozenset({n}) for n in range(200)})


@pytest.mark.parametrize(
    "incoming",
    [
        # Grows the stored map: the merge builds new nodes.
        PMap.from_dict({n: frozenset({n, n + 1}) for n in range(100, 300)}),
        # Adds nothing, from disjoint nodes: the merge adopts them.
        PMap.from_dict({n: frozenset({n}) for n in range(0, 200, 3)}),
    ],
    ids=["grows", "adds-nothing"],
)
def test_memo_hit_answers_like_a_fresh_merge(incoming):
    pmap.drop_merge_memo()
    try:
        first, first_changed = STORED.merge_changed(incoming, _join)
        assert _memo_entries() > 0
        hit, hit_changed = STORED.merge_changed(incoming, _join)
        assert hit._root is first._root
        assert hit_changed == first_changed
        pmap.drop_merge_memo()
        fresh, fresh_changed = STORED.merge_changed(incoming, _join)
        assert hit_changed == fresh_changed
        assert hit.to_dict() == fresh.to_dict()
        assert hit_changed == (hit.to_dict() != STORED.to_dict())
    finally:
        pmap.drop_merge_memo()


_COUNT_MERGES = """
import sys
from repro.api import vet
from repro.domains import pmap
from repro.evaluation.scaling import SHAPES
calls = 0
merge = pmap._merge
def counting(*args):
    global calls
    calls += 1
    return merge(*args)
pmap._merge = counting  # recursive calls go through the module global
vet(SHAPES[sys.argv[1]](int(sys.argv[2])))
print(calls)
"""

#: ``pmap._merge`` calls (recursive ones included) in one vet, with
#: ``PYTHONHASHSEED=0``, when the memo kept every entry to the end of
#: the analysis. Dropping entries whose operands died must not add one.
MERGE_CALLS = {("flat", 32): 92_599, ("chain", 32): 74_072}


@pytest.mark.parametrize(
    "shape, size", sorted(MERGE_CALLS), ids=[f"{s}{n}" for s, n in sorted(MERGE_CALLS)]
)
def test_dropping_dead_entries_loses_no_hit(shape, size):
    env = dict(source_env(), PYTHONHASHSEED="0")
    measured = subprocess.run(
        [sys.executable, "-c", _COUNT_MERGES, shape, str(size)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert json.loads(measured.stdout) == MERGE_CALLS[shape, size]
