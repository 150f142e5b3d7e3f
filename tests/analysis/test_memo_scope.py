"""The pmap merge memo lives for one analysis.

Its entries hold strong references to the trie nodes they key on, so a
memo that outlived its analysis would pin every finished vet's states
until a later entry evicted them. Each exit path of
:meth:`Interpreter.run` — normal return, a raised budget trip, a
salvaged trip, any other exception — must leave the memo empty, and
repeated vets in one process must not accumulate memory. Within one
analysis, a hit must answer exactly what a fresh merge would.
"""

import gc
import tracemalloc

import pytest

from repro.analysis import AnalysisBudgetExceeded, analyze, interpreter
from repro.api import vet
from repro.browser import BrowserEnvironment
from repro.domains import pmap
from repro.domains.pmap import PMap
from repro.evaluation.scaling import synthesize_chain
from repro.ir import lower
from repro.js import parse

PROGRAM = lower(parse(synthesize_chain(4)))  # ~600 fixpoint steps


def _analyze(**kwargs):
    return analyze(PROGRAM, BrowserEnvironment(), **kwargs)


def _memo_entries() -> int:
    return len(pmap._MERGE_MEMO) + len(pmap._MERGE_MEMO_OLD)


@pytest.fixture
def memo_at_exit(monkeypatch):
    """Records how many memo entries each analysis held when it ended,
    so the tests can tell a dropped memo from one never filled."""
    seen = []

    def recording_drop():
        seen.append(_memo_entries())
        pmap.drop_merge_memo()

    monkeypatch.setattr(interpreter, "drop_merge_memo", recording_drop)
    return seen


def test_memo_empty_after_analysis_returns(memo_at_exit):
    result = _analyze()
    assert not result.degradations
    assert memo_at_exit[0] > 0
    assert _memo_entries() == 0


def test_memo_empty_after_budget_exceeded(memo_at_exit):
    with pytest.raises(AnalysisBudgetExceeded):
        _analyze(max_steps=200)
    assert memo_at_exit[0] > 0
    assert _memo_entries() == 0


def test_memo_empty_after_salvaged_trip(memo_at_exit):
    result = _analyze(max_steps=200, salvage=True)
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
    # A merge memo that outlives its analysis pins ~2 MB of entries and
    # trie nodes per vet of this program; the slack allows for lazily
    # filled caches, not for that.
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
