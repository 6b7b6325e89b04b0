"""The data process: where the data team holds a command-line agent, a
run calls each day's data agents in a forked process, ahead of the
research team, and does the rest of the day itself. Its four outputs are
the bytes of the inline run, also after the process dies or sends
garbage; a fault in a data-agent call fails the run on its day as it
does inline; and no run leaves a process behind."""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import time
from pathlib import Path

import pytest
import yaml
from test_agents import assert_no_child_left
from test_config_cli import GOLDEN_CONFIG, write_config

from tradecontest import cli as cli_mod
from tradecontest import engine as eng
from tradecontest.cli import main
from tradecontest.errors import TradeContestError
from tradecontest.forked import Forked
from tradecontest.prediction import fits

OUTPUTS = ("ledger.jsonl", "metrics.json", "nav.csv", "fills.csv")
AGENT_AWK = Path(__file__).resolve().parent.parent / "perfbench" / "agent.awk"
AWK = f"awk -f {AGENT_AWK}"

# the golden gbdt run, shorter, with a command-line data agent added: the
# data process fits the data team's gbdt model on most days
GBDT = {**GOLDEN_CONFIG,
        "data": {**GOLDEN_CONFIG["data"], "n_days": 60},
        "agents": {**GOLDEN_CONFIG["agents"], "data": [
            *GOLDEN_CONFIG["agents"]["data"],
            {"kind": "external", "agent_id": "x6", "endpoint": AWK, "timeout": 30}]},
        "contest": {**GOLDEN_CONFIG["contest"], "n_trees": 10}}
# the benchmark's awk agent, on the line protocol, beside synthetic agents
COMMAND_LINE = {
    "seed": 5,
    "data": {"kind": "synthetic", "n_symbols": 8, "n_days": 45, "daily_vol": 0.015,
             "planted": [{"symbol": "SYM000", "start_day": 0, "drift": 0.006}]},
    "agents": {
        "data": [{"kind": "external", "agent_id": f"x{i}", "endpoint": AWK, "timeout": 30}
                 for i in range(3)] + [{"agent_id": "s9", "skill": 0.7}],
        "research": [{"kind": "external", "agent_id": "y1", "endpoint": AWK, "timeout": 30},
                     {"agent_id": "r0", "belief": "momentum"}],
    },
    "contest": {"predictor": "baseline", "budget": 256},
}

pytestmark = [
    pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity"))
                       or len(os.sched_getaffinity(0)) < 2,
                       reason="the data process needs fork and two cores"),
    pytest.mark.skipif(shutil.which("awk") is None, reason="the command-line roster runs awk"),
]


@pytest.fixture(params=["command-line", "gbdt"])
def config_path(request, tmp_path):
    path = tmp_path / f"{request.param}.yaml"
    path.write_text(yaml.safe_dump(COMMAND_LINE if request.param == "command-line" else GBDT))
    return path


@pytest.fixture()
def data_processes(monkeypatch):
    """The data processes the engine builds from here on, not its fit
    workers."""
    built = []

    def build(serve):
        child = Forked(serve)
        if serve is not fits:
            built.append(child)
        return child

    monkeypatch.setattr(eng, "Forked", build)
    return built


def backtest(config_path, out) -> dict[str, bytes]:
    assert main(["backtest", str(config_path), "--output-dir", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in OUTPUTS}


@pytest.fixture()
def inline_outputs(config_path, tmp_path, monkeypatch):
    """The run's outputs with its one core: nothing is forked."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        patch.setattr(os, "fork", lambda: pytest.fail("forked on one core"))
        return backtest(config_path, tmp_path / "inline")


def forked_per_run(config_path) -> int:
    """The children a forked run of ``config_path`` forks from its own
    process: its data process and, on the gbdt roster, its fit worker."""
    return 2 if config_path.stem == "gbdt" else 1


def test_forked_run_writes_the_inline_bytes(config_path, tmp_path, inline_outputs,
                                            data_processes, forks):
    assert backtest(config_path, tmp_path / "forked") == inline_outputs
    [process] = data_processes
    assert len(forks) == forked_per_run(config_path)  # it ran
    assert process.pid is None  # and was reaped
    assert_no_child_left()


def test_a_forked_run_leaves_the_inline_data_team(config_path, tmp_path, monkeypatch, forks):
    """The run scores the factors the data process sends as it takes each
    day: once the records end, its data team holds the scores and training
    rows of an inline run."""
    engines = []

    class Recorded(eng.ContestEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(eng, "ContestEngine", Recorded)
    backtest(config_path, tmp_path / "forked")
    assert len(forks) == forked_per_run(config_path)  # it ran
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        backtest(config_path, tmp_path / "inline")
    forked, inline = engines
    assert all(inline.data.scores.values())
    assert forked.data.scores == inline.data.scores
    assert forked.data.rows == inline.data.rows
    assert_no_child_left()


def data_outputs(failure: str, k: int):
    """``ContestEngine.data_outputs`` which, in the data process only, gives
    a string on day k, or hangs there."""
    outputs, run_pid = eng.ContestEngine.data_outputs, os.getpid()

    def failing(self, t, view):
        if os.getpid() != run_pid and self.store.day_index(t) == k:
            if failure == "garbage":
                return "garbage"
            time.sleep(60)
        return outputs(self, t, view)

    return failing


@pytest.mark.parametrize("failure", ["killed", "garbage"])
def test_a_failed_data_process_leaves_the_inline_bytes(config_path, tmp_path, monkeypatch,
                                                        inline_outputs, data_processes, forks,
                                                        failure):
    applied, apply_day = [], cli_mod.apply_day

    def apply_and_kill(*args):
        applied.append(args[3])
        if len(applied) == 12 and failure == "killed":  # the data process hangs on day 40
            pid = data_processes[0].pid
            os.kill(pid, signal.SIGKILL)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
        return apply_day(*args)

    monkeypatch.setattr(cli_mod, "apply_day", apply_and_kill)
    monkeypatch.setattr(eng.ContestEngine, "data_outputs",
                        data_outputs(failure, 40 if failure == "killed" else 30))
    assert backtest(config_path, tmp_path / "failed") == inline_outputs
    [process] = data_processes
    assert len(forks) == forked_per_run(config_path)  # it ran
    assert process.pid is None and len(applied) > 12
    assert_no_child_left()


class Unpicklable(Exception):
    """A fault that cannot be pickled: the class is not importable."""


Unpicklable.__qualname__ = "nowhere.Unpicklable"


@pytest.mark.parametrize("fault", [TradeContestError, RuntimeError, Unpicklable])
def test_a_data_stage_fault_fails_the_run_as_inline(config_path, tmp_path, monkeypatch,
                                                    capsys, data_processes, forks, fault):
    """A fault in day 30's data-agent call gives the same exception, or exit
    status and error line, and the ledger lines of the days before, forked
    and inline: the data process ends on it, and the run raises it again
    as it calls that day's agents itself."""
    outputs = eng.ContestEngine.data_outputs

    def faulty(self, t, view):
        if self.store.day_index(t) == 30:
            raise fault(f"injected fault on {t}")
        return outputs(self, t, view)

    monkeypatch.setattr(eng.ContestEngine, "data_outputs", faulty)
    results, fork_counts = [], []
    for cores in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        out = tmp_path / f"cores{len(cores)}"
        if issubclass(fault, TradeContestError):
            assert main(["backtest", str(config_path), "--output-dir", str(out)]) == 1
            message = capsys.readouterr().err
        else:
            with pytest.raises(fault) as raised:
                main(["backtest", str(config_path), "--output-dir", str(out)])
            message = str(raised.value)
        assert_no_child_left()  # while a traceback may still hold the run's frames
        assert not (out / "metrics.json").exists()
        results.append((message, (out / "ledger.jsonl").read_bytes()))
        fork_counts.append(len(forks))
    assert results[0] == results[1]
    # both runs built a data process; only the one with two cores forked
    assert len(data_processes) == 2 and fork_counts == [forked_per_run(config_path)] * 2
    message, ledger = results[0]
    fault_day = re.search(r"injected fault on (\S+)", message).group(1)
    last = [json.loads(line)["date"] for line in ledger.splitlines()][-1]
    assert last < fault_day


def test_a_synthetic_baseline_roster_forks_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a synthetic baseline run forked"))
    assert main(["backtest", str(write_config(tmp_path / "run.yaml"))]) == 0


def test_a_synthetic_gbdt_roster_runs_its_data_stage_inline(tmp_path, data_processes):
    path = tmp_path / "gbdt.yaml"
    path.write_text(yaml.safe_dump({**GBDT, "agents": GOLDEN_CONFIG["agents"]}))
    assert main(["backtest", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    assert data_processes == []


def test_ablate_reaps_every_process(config_path, tmp_path, data_processes, forks):
    assert main(["ablate", str(config_path), "--variant", "no_judger",
                 "--output-dir", str(tmp_path / "out")]) == 0
    assert len(forks) == 2 * forked_per_run(config_path)  # both runs forked
    assert len(data_processes) == 2 and all(p.pid is None for p in data_processes)
    assert_no_child_left()
