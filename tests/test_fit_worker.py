"""The forked worker that fits each gbdt model's std ensemble while the run
fits its mean ensemble: a run's four outputs are the same bytes with the
worker, without it and after it fails, and no run leaves a process behind."""

from __future__ import annotations

import os
import pickle
import signal
import threading

import numpy as np
import pytest
import yaml
from test_agents import assert_no_child_left
from test_config_cli import GOLDEN_CONFIG

from tradecontest import cli as cli_mod
from tradecontest.cli import main
from tradecontest.engine import ContestConfig
from tradecontest.forked import Forked
from tradecontest.gbdt import GradientBoostedRegressor
from tradecontest.prediction import fits, train

OUTPUTS = ("ledger.jsonl", "metrics.json", "nav.csv", "fills.csv")

# the golden gbdt run, shorter: both contests fit gbdt models on most days
CONFIG = {**GOLDEN_CONFIG,
          "data": {**GOLDEN_CONFIG["data"], "n_days": 60},
          "contest": {**GOLDEN_CONFIG["contest"], "n_trees": 10}}

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity"))
    or len(os.sched_getaffinity(0)) < 2,
    reason="the worker needs fork and two cores")


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "gbdt.yaml"
    path.write_text(yaml.safe_dump(CONFIG))
    return path


def backtest(config_path, out) -> dict[str, bytes]:
    assert main(["backtest", str(config_path), "--output-dir", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in OUTPUTS}


@pytest.fixture()
def serial_outputs(config_path, tmp_path, monkeypatch):
    """The run's outputs with its one core: no worker is forked."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        patch.setattr(os, "fork", lambda: pytest.fail("forked on one core"))
        return backtest(config_path, tmp_path / "serial")


def test_one_worker_per_run_and_the_same_bytes_as_serial(config_path, tmp_path,
                                                         serial_outputs, forks):
    assert backtest(config_path, tmp_path / "forked") == serial_outputs
    assert len(forks) == 1
    assert_no_child_left()


def kill(pid):
    """Kill the worker and wait for it to die, leaving its reaping to the run."""
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


def fail_in_worker(result):
    """A ``GradientBoostedRegressor.fit`` that, in a forked worker only,
    returns ``result(model)`` instead of the model."""
    fit, parent = GradientBoostedRegressor.fit, os.getpid()

    def fit_or_fail(self, X, y):
        model = fit(self, X, y)
        return model if os.getpid() == parent else result(model)

    return fit_or_fail


def raise_error(model):
    raise RuntimeError("fit failed")


@pytest.mark.parametrize("failure", [
    "killed-before-its-job", "killed-during-its-job", "raises", "bad-reply", "garbage-reply"])
def test_a_failed_worker_leaves_the_same_bytes(config_path, tmp_path, monkeypatch,
                                               serial_outputs, forks, failure):
    jobs, send = [], Forked.send

    def failing_send(self, job):
        settings, X, y = job
        jobs.append(len(X))
        if len(jobs) == 5 and failure == "killed-before-its-job":
            kill(self.pid)
        sent = send(self, job)
        if len(jobs) == 5 and failure == "killed-during-its-job":
            kill(self.pid)
        return sent

    monkeypatch.setattr(Forked, "send", failing_send)
    if failure == "raises":
        monkeypatch.setattr(GradientBoostedRegressor, "fit", fail_in_worker(raise_error))
    elif failure == "bad-reply":
        monkeypatch.setattr(GradientBoostedRegressor, "fit", fail_in_worker(lambda m: m.trees))
    elif failure == "garbage-reply":
        dump, parent = pickle.dump, os.getpid()
        monkeypatch.setattr(pickle, "dump", lambda obj, fh, protocol=None: dump(
            obj, fh, protocol) if os.getpid() == parent else fh.write(b"garbage\n"))
    assert backtest(config_path, tmp_path / "failed") == serial_outputs
    assert len(forks) == 1 and len(jobs) > 5  # the run went on without a worker
    assert_no_child_left()


def test_a_run_that_raises_reaps_its_worker(config_path, tmp_path, monkeypatch, forks):
    apply_day = cli_mod.apply_day

    def apply_until_forked(*args):
        if forks:
            os.kill(forks[0], 0)  # the worker is still running
            raise RuntimeError("apply_day failed")
        return apply_day(*args)

    monkeypatch.setattr(cli_mod, "apply_day", apply_until_forked)
    with pytest.raises(RuntimeError, match="apply_day failed") as raised:
        main(["backtest", str(config_path), "--output-dir", str(tmp_path / "out")])
    assert len(forks) == 1
    assert_no_child_left()  # while the traceback still holds the run's frames


def test_ablate_reaps_both_runs_workers(config_path, tmp_path, forks):
    assert main(["ablate", str(config_path), "--variant", "no_judger",
                 "--output-dir", str(tmp_path / "out")]) == 0
    assert len(forks) == 2
    assert_no_child_left()


def test_worker_fits_the_bits_of_a_serial_fit():
    rng = np.random.default_rng(5)
    X, targets = rng.standard_normal((200, 6)), rng.standard_normal((200, 2))
    rules = ContestConfig(n_trees=15)
    worker = Forked(fits)
    try:
        forked = [train(rules, X, targets, worker) for _ in range(2)]
        assert worker.pid is not None
    finally:
        worker.close()
    serial = train(rules, X, targets)
    for model in forked:
        for ensemble in ("mu_model", "sigma_model"):
            assert pickle.dumps(getattr(model, ensemble)) == \
                pickle.dumps(getattr(serial, ensemble))
    assert_no_child_left()


def test_no_fork_while_another_thread_runs(forks):
    rng = np.random.default_rng(6)
    X, targets = rng.standard_normal((60, 4)), rng.standard_normal((60, 2))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    worker = Forked(fits)
    try:
        model = train(ContestConfig(n_trees=3), X, targets, worker)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and not forks and worker.pid is None
    assert pickle.dumps(model.sigma_model) == \
        pickle.dumps(train(ContestConfig(n_trees=3), X, targets).sigma_model)


def test_a_worker_forks_at_its_first_send_or_receive_and_never_once_closed(forks):
    rng = np.random.default_rng(7)
    X, y = rng.standard_normal((40, 4)), rng.standard_normal(40)
    job = ({"n_trees": 3, "max_depth": 2, "learning_rate": 0.1}, X, y)
    closed, worker, replier = Forked(fits), Forked(fits), Forked(lambda jobs: iter(["ready"]))
    assert not forks and worker.pid is None  # built, not yet forked
    closed.close()
    try:
        assert worker.send(job) and forks == [worker.pid]
        assert isinstance(worker.receive(GradientBoostedRegressor), GradientBoostedRegressor)
        assert replier.receive(str) == "ready" and forks == [worker.pid, replier.pid]
    finally:
        worker.close()
        replier.close()
    for child in (closed, worker):
        assert not child.send(job) and child.receive(GradientBoostedRegressor) is None
        assert child.pid is None
    assert len(forks) == 2
    assert_no_child_left()
