"""Runner output checks, lost jobs, and the refusal to run without the
program."""

import bench.__main__ as runner
from bench.tests import SMALL
from bench.workloads import run_jobs, run_sub, simulated_outcome
from repro.compute.runtime import JobRuntime
from repro.sim.engine import Simulator


def _pass(mode, finished=200, digest="x"):
    sim = {
        "jobs_attempted": 200,
        "jobs_finished": finished,
        "job_n": finished,
        "events": 5,
        "digest": digest,
    }
    layers = {
        "bench.events_total": 5, "core.slave.events": 5, "core.slave.self_s": 0.1
    }
    return {"mode": mode, "sim": sim, "layers": layers if mode == "layers" else None}


def test_clean_passes_have_no_problems():
    passes = {"plain": [_pass("plain"), _pass("plain")], "layers": [_pass("layers")]}
    assert runner.problems(passes) == []
    assert runner.jobs_tally(passes) == (600, 0)


def test_problems_flag_unfinished_jobs_and_a_changed_outcome():
    passes = {"plain": [_pass("plain"), _pass("plain", finished=199, digest="y")]}
    found = runner.problems(passes)
    assert any("finished 199 of 200" in p for p in found)
    assert any("changed the simulated outcome" in p for p in found)
    assert runner.jobs_tally(passes) == (400, 1)


def test_problems_flag_a_thin_p95_tail():
    found = runner.problems({"plain": [_pass("plain", finished=170)]})
    assert any("job_p95_s rests on 170 jobs" in p for p in found)


def test_run_jobs_outlives_a_failed_job_and_stops_at_the_deadline():
    sim = Simulator()

    def finishes():
        yield sim.timeout(5)

    def fails():
        yield sim.timeout(1)
        raise RuntimeError("lost")

    def hangs():
        yield sim.event()

    def ticks():  # keeps the heap full, as heartbeats do
        while True:
            yield sim.timeout(10)

    sim.process(ticks())
    jobs = [sim.process(fails()), sim.process(finishes()), sim.process(hangs())]
    run_jobs(sim, jobs, deadline=100.0)
    assert not jobs[0].ok
    assert jobs[1].ok
    assert not jobs[2].processed
    assert sim.now <= 100.0


def test_a_job_that_never_finishes_makes_the_result_incorrect(monkeypatch):
    original = JobRuntime._run_job
    hung = []

    def run_job(self, job):
        if not hung or hung == [job.job_id]:
            hung[:] = [job.job_id]
            yield self.sim.event()  # never triggered
        return (yield from original(self, job))

    monkeypatch.setattr(JobRuntime, "_run_job", run_job)
    outcome = simulated_outcome([run_sub(SMALL, seed=3, trace=0)])
    assert outcome["jobs_finished"] == outcome["jobs_attempted"] - 1 == 199

    one_pass = {
        "mode": "plain",
        "sim": outcome,
        "wall_s": 1.0,
        "setup_s": 0.5,
        "peak_rss_mb": 40.0,
        "layers": None,
    }
    monkeypatch.setattr(runner, "run_pass", lambda *args: one_pass)
    result = runner.measure(runner.load_spec(), "paper-swim", 0, 0.0, trace=False)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (600, 3)
    assert all(
        isinstance(m["value"], (int, float)) for m in result["metrics"].values()
    ), result["metrics"]


def test_missing_program_exits_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(runner, "PROGRAM", tmp_path / "absent.py")
    code = runner.main(["--workload", "paper-swim", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
