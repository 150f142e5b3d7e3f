"""DurableJobQueue: journaled lifecycle, replay, exactly-once commits."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.batch import VetTask
from repro.faults import FailureKind
from repro.service import DurableJobQueue, JobState
from repro.service.jobs import derive_job_id

pytestmark = pytest.mark.service


def _task(name="addon", source="var x = 1;"):
    return VetTask(name=name, source=source)


@pytest.fixture
def open_queue():
    """Opens queues (``fsync`` off unless asked) and closes every one
    at teardown, so no journal handle outlives its test."""
    opened = []

    def open_queue(tmp_path, **kwargs):
        kwargs.setdefault("fsync", False)
        queue = DurableJobQueue(tmp_path, **kwargs)
        opened.append(queue)
        return queue

    yield open_queue
    for queue in opened:
        queue.close()


class TestLifecycle:
    def test_submit_claim_commit(self, tmp_path, open_queue):
        queue = open_queue(tmp_path)
        job = queue.submit(_task())
        assert job.state is JobState.QUEUED

        claimed = queue.claim()
        assert claimed.id == job.id
        assert claimed.state is JobState.RUNNING
        assert claimed.attempts == 1

        assert queue.commit_result(job.id, {"ok": True})
        assert queue.get(job.id).state is JobState.DONE
        assert queue.result(job.id) == {"ok": True}

    def test_submit_is_idempotent_on_job_id(self, tmp_path, open_queue):
        queue = open_queue(tmp_path)
        first = queue.submit(_task(), job_id="job-1")
        again = queue.submit(_task(), job_id="job-1")
        assert first is again
        assert queue.depth() == 1

    def test_commit_is_idempotent_first_verdict_wins(self, tmp_path, open_queue):
        queue = open_queue(tmp_path)
        job = queue.submit(_task())
        queue.claim()
        assert queue.commit_result(job.id, {"verdict": "first"})
        assert not queue.commit_result(job.id, {"verdict": "second"})
        assert queue.result(job.id) == {"verdict": "first"}

    def test_claim_order_is_submission_order(self, tmp_path, open_queue):
        queue = open_queue(tmp_path)
        ids = [
            queue.submit(_task(f"a{n}", f"var v{n} = {n};")).id
            for n in range(5)
        ]
        assert [queue.claim().id for _ in range(5)] == ids
        assert queue.claim() is None

    def test_cancel_only_from_queued(self, tmp_path, open_queue):
        queue = open_queue(tmp_path)
        job = queue.submit(_task())
        assert queue.cancel(job.id)
        assert not queue.cancel(job.id)
        assert queue.claim() is None, "cancelled jobs are not claimable"

        running = queue.submit(_task("other", "var y = 2;"))
        queue.claim()
        assert not queue.cancel(running.id), "running jobs keep running"

    def test_fail_records_typed_failure(self, tmp_path, open_queue):
        queue = open_queue(tmp_path)
        job = queue.submit(_task())
        queue.claim()
        queue.fail(job.id, FailureKind.BUDGET_TIME, "hard deadline")
        got = queue.get(job.id)
        assert got.state is JobState.FAILED
        assert got.failure == FailureKind.BUDGET_TIME.value


class TestCrashRetryAndPoison:
    def test_crashed_requeues_until_attempts_spent(self, tmp_path, open_queue):
        queue = open_queue(tmp_path, max_attempts=3)
        job = queue.submit(_task())
        for attempt in (1, 2):
            assert queue.claim().attempts == attempt
            assert queue.crashed(job.id, "boom") is JobState.QUEUED
        queue.claim()
        assert queue.crashed(job.id, "boom") is JobState.POISONED
        got = queue.get(job.id)
        assert got.failure == FailureKind.POISON.value
        assert "3" in got.error
        assert queue.claim() is None, "poisoned jobs never run again"


class TestReplay:
    def test_job_ids_are_stable_across_releases(self):
        # Journals written by earlier releases name jobs by these ids;
        # a resubmission must still find its job after an upgrade.
        source = 'var x = "é";'
        assert derive_job_id("my-addon", source) == "job-55e16e2b976f6b83eeaf"
        assert (
            derive_job_id("my-addon", source, "retry-1")
            == "job-c7cd8842698b04986fbd"
        )

    def test_replay_restores_every_state(self, tmp_path, open_queue):
        queue = open_queue(tmp_path)
        done = queue.submit(_task("done-addon", "var a = 1;"))
        queue.claim()
        queue.commit_result(done.id, {"ok": True})
        queued = queue.submit(_task("queued-addon", "var b = 2;"))
        cancelled = queue.submit(_task("cancelled-addon", "var c = 3;"))
        queue.cancel(cancelled.id)
        queue.close()

        revived = open_queue(tmp_path)
        assert revived.get(done.id).state is JobState.DONE
        assert revived.result(done.id) == {"ok": True}
        assert revived.get(queued.id).state is JobState.QUEUED
        assert revived.get(cancelled.id).state is JobState.CANCELLED
        assert revived.recovery["jobs_replayed"] == 3
        assert revived.claim().id == queued.id

    def test_replay_runs_a_task_with_a_retired_field(self, tmp_path, open_queue):
        # A journal written before ``VetTask.preanalysis`` was removed
        # still carries the field; replay drops it and the job runs.
        from repro.batch import vet_many
        from repro.service.jobs import task_to_json

        queue = open_queue(tmp_path)
        record = task_to_json(_task("old-addon", "var k = 'a'; var v = o[k];"))
        record["preanalysis"] = False
        queue._log({
            "event": "submit", "job_id": "job-old", "seq": 1, "task": record,
        })
        queue.close()

        revived = open_queue(tmp_path)
        assert revived.recovery["jobs_replayed"] == 1
        claimed = revived.claim()
        assert claimed.id == "job-old"
        assert not hasattr(claimed.task, "preanalysis")
        [outcome] = vet_many([claimed.task], workers=1, use_cache=False)
        assert outcome.ok
        assert outcome.signature_text == ""

    def test_replay_requeues_mid_run_jobs(self, tmp_path, open_queue):
        queue = open_queue(tmp_path)
        job = queue.submit(_task())
        queue.claim()  # daemon "dies" here, mid-run
        queue.close()

        revived = open_queue(tmp_path)
        assert revived.recovery["requeued"] == 1
        claimed = revived.claim()
        assert claimed.id == job.id
        assert claimed.attempts == 2, "the lost attempt still counts"

    def test_replay_heals_commit_without_done_record(self, tmp_path, open_queue):
        queue = open_queue(tmp_path)
        job = queue.submit(_task())
        queue.claim()
        # Crash window: the result was committed to the store but the
        # daemon died before journaling ``done``.
        queue.results.put(job.id, {"ok": True, "verdict": "pass"})
        queue.close()

        revived = open_queue(tmp_path)
        assert revived.recovery["healed_commits"] == 1
        assert revived.get(job.id).state is JobState.DONE
        assert revived.result(job.id) == {"ok": True, "verdict": "pass"}
        assert revived.claim() is None, "healed job is never re-run"

    def test_replay_poisons_jobs_with_spent_attempts(self, tmp_path, open_queue):
        queue = open_queue(tmp_path, max_attempts=1)
        job = queue.submit(_task())
        queue.claim()  # attempt journaled, then the daemon dies
        queue.close()

        revived = open_queue(tmp_path, max_attempts=1)
        assert revived.recovery["poisoned"] == 1
        assert revived.get(job.id).state is JobState.POISONED

    def test_compact_preserves_state_and_shrinks_journals(self, tmp_path, open_queue):
        queue = open_queue(tmp_path, max_attempts=5)
        survivor = queue.submit(_task("survivor", "var s = 1;"))
        pending = queue.submit(_task("pending", "var p = 2;"))
        # Crash the same job twice before it commits: three ``start``
        # records pile up that compaction folds to one high-water mark.
        for _ in range(2):
            assert queue.claim().id == survivor.id
            queue.crashed(survivor.id, "boom")
            queue.claim()  # the other job interleaves
            queue.crashed(pending.id, "boom")
        assert queue.claim().id == survivor.id
        queue.commit_result(survivor.id, {"ok": True})
        size_before = sum(
            p.stat().st_size for p in (tmp_path / "journal").glob("*.log")
        )
        queue.compact()
        size_after = sum(
            p.stat().st_size for p in (tmp_path / "journal").glob("*.log")
        )
        assert size_after < size_before
        queue.close()

        revived = open_queue(tmp_path, max_attempts=5)
        assert revived.get(survivor.id).state is JobState.DONE
        assert revived.get(survivor.id).attempts == 3
        assert revived.result(survivor.id) == {"ok": True}
        assert revived.claim().id == pending.id


@pytest.mark.faults
class TestCrashDurability:
    def test_acked_submissions_survive_sigkill(self, tmp_path, open_queue):
        """SIGKILL a submitting process mid-stream: every submission it
        acknowledged must replay; at most the unacknowledged in-flight
        one may be missing — and nothing may be duplicated or torn."""
        script = textwrap.dedent("""
            import sys
            from repro.batch import VetTask
            from repro.service import DurableJobQueue
            queue = DurableJobQueue(sys.argv[1], fsync=False)
            n = 0
            while True:
                queue.submit(
                    VetTask(name=f"addon-{n}", source=f"var v = {n};"),
                    job_id=f"job-{n:05d}",
                )
                print(n, flush=True)
                n += 1
        """)
        with subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": "src"},
        ) as process:
            acked = -1
            for _ in range(150):
                line = process.stdout.readline()
                if not line:
                    break
                acked = int(line)
            process.kill()
        assert acked >= 50, "submitter died before enough submissions"

        queue = open_queue(tmp_path)
        ids = sorted(job.id for job in queue.jobs())
        assert queue.recovery["corrupt_records"] == 0
        expected = [f"job-{n:05d}" for n in range(len(ids))]
        assert ids == expected, "replayed ids must be a gapless prefix"
        assert len(ids) >= acked + 1
        assert all(
            job.state is JobState.QUEUED for job in queue.jobs()
        )
