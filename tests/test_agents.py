from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
import pickle
import shlex
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradecontest import agents as agents_mod
from tradecontest.agents import (
    MAX_REPLY_BYTES,
    MAX_TIMEOUT_S,
    AgentRequest,
    ExternalDataAgent,
    ExternalResearchAgent,
    Observation,
    SyntheticDataAgent,
    SyntheticResearchAgent,
    TextualFactor,
    TradingSignal,
    build_request,
    external_agent_call,
    parse_factor_response,
    parse_signal_response,
    render_portfolio_text,
    token_count,
)
from tradecontest.allocation import FactorPortfolio, empty_portfolio
from tradecontest.cli import main
from tradecontest.engine import ContestConfig, _collect, run_full
from tradecontest.errors import AgentUnavailableError, ProtocolError
from tradecontest.market import (
    PlantedEffect,
    SyntheticSpec,
    generate_synthetic,
    price_change,
    view_until,
)

from conftest import bar_map, store_of
from stub_agent import SLOW_S
from test_config_cli import expand_portfolio_refs, write_config

STUB = f"{sys.executable} {Path(__file__).parent / 'stub_agent.py'}"

D = dt.date


class TestContracts:
    def test_rating_must_be_in_range(self):
        with pytest.raises(ValueError, match="rating out of range"):
            Observation(text="x", rated_symbols=(("AAA", 3),))

    def test_token_cap(self):
        with pytest.raises(ValueError, match="token cap exceeded"):
            TextualFactor(agent_id="a", date=D(2025, 1, 2),
                          observations=(), token_length=5000)

    def test_nonempty_factor_needs_tokens(self):
        obs = Observation(text="x", rated_symbols=())
        with pytest.raises(ValueError):
            TextualFactor(agent_id="a", date=D(2025, 1, 2),
                          observations=(obs,), token_length=0)

    def test_action_set(self):
        with pytest.raises(ValueError):
            TradingSignal(agent_id="a", date=D(2025, 1, 2), symbol="AAA",
                          action="short", evidence=("e",))

    def test_buy_needs_evidence(self):
        with pytest.raises(ValueError, match="evidence"):
            TradingSignal(agent_id="a", date=D(2025, 1, 2), symbol="AAA",
                          action="buy")

    def test_skill_bounds(self):
        with pytest.raises(ValueError):
            SyntheticDataAgent(agent_id="a", noise_seed=1, skill=1.5)

    def test_token_count_rule(self):
        assert token_count(["abcd", "ef"]) == 2  # ceil(6 / 4)
        assert token_count([]) == 0


class TestSyntheticDataAgent:
    def test_deterministic(self, drift_store):
        agent = SyntheticDataAgent(agent_id="d0", noise_seed=42, skill=0.5, obs_per_day=3)
        t = drift_store.calendar[20]
        view = view_until(drift_store, t)
        a = agent.produce(view, t)
        b = agent.produce(view, t)
        assert a == b

    def test_zero_obs(self, drift_store):
        agent = SyntheticDataAgent(agent_id="d0", noise_seed=1, skill=0.0, obs_per_day=0)
        t = drift_store.calendar[5]
        factor = agent.produce(view_until(drift_store, t), t)
        assert factor.observations == ()
        assert factor.token_length == 0

    def test_skillful_agent_tracks_next_day_sign(self):
        # one hard-drifting symbol; the informed path should rate it in the
        # direction the price actually moves next day
        spec_market = SyntheticSpec(
            n_symbols=4, n_days=60, daily_vol=0.002,
            planted=(PlantedEffect("SYM000", 0.02),),
        )
        store = generate_synthetic(spec_market, 88)
        agent = SyntheticDataAgent(agent_id="d0", noise_seed=7, skill=1.0, obs_per_day=1)
        matches = 0
        total = 0
        for i in range(10, len(store.calendar) - 1):
            t = store.calendar[i]
            factor = agent.produce(view_until(store, t), t)
            for obs in factor.observations:
                for sym, rating in obs.rated_symbols:
                    if sym != "SYM000" or rating == 0:
                        continue
                    realized = price_change(store, sym, t)
                    total += 1
                    matches += (rating > 0) == (realized > 0)
        assert total > 20
        assert matches / total >= 0.9

    def test_factor_dated_at_request_day(self, drift_store):
        agent = SyntheticDataAgent(agent_id="d0", noise_seed=3, skill=0.2, obs_per_day=2)
        t = drift_store.calendar[15]
        factor = agent.produce(view_until(drift_store, t), t)
        assert factor.date == t
        assert 1 <= factor.token_length <= 4096

    def test_outputs_only_reference_visible_symbols(self, drift_store):
        agent = SyntheticDataAgent(agent_id="d0", noise_seed=9, skill=0.7, obs_per_day=4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            i = int(rng.integers(2, len(drift_store.calendar)))
            t = drift_store.calendar[i]
            factor = agent.produce(view_until(drift_store, t), t)
            for obs in factor.observations:
                for sym, _ in obs.rated_symbols:
                    assert sym in drift_store.symbols


def _portfolio_with(symbols, date, ratings=None):
    obs = tuple(
        Observation(text=f"note on {s}", rated_symbols=((s, r),))
        for s, r in zip(symbols, ratings or [1] * len(symbols))
    )
    factor = TextualFactor(agent_id="d0", date=date, observations=obs,
                           token_length=max(1, token_count(o.text for o in obs)))
    return FactorPortfolio(date=date, selected=(("d0", factor),),
                           total_tokens=factor.token_length, total_utility=1.0)


class TestSyntheticResearchAgent:
    def test_singleton_portfolio_buys_it(self, drift_store):
        t = drift_store.calendar[20]
        agent = SyntheticResearchAgent(agent_id="r0", noise_seed=5, belief="momentum")
        portfolio = _portfolio_with(["SYM001"], t)
        signal = agent.produce(portfolio, view_until(drift_store, t), t)
        assert signal.action == "buy"
        assert signal.symbol == "SYM001"
        assert signal.evidence

    def test_empty_portfolio_holds(self, drift_store):
        t = drift_store.calendar[20]
        agent = SyntheticResearchAgent(agent_id="r0", noise_seed=5)
        signal = agent.produce(empty_portfolio(t), view_until(drift_store, t), t)
        assert signal.action == "hold"

    def test_deterministic(self, drift_store):
        t = drift_store.calendar[30]
        agent = SyntheticResearchAgent(agent_id="r0", noise_seed=11, belief="random")
        portfolio = _portfolio_with(["SYM000", "SYM002"], t)
        view = view_until(drift_store, t)
        assert agent.produce(portfolio, view, t) == agent.produce(portfolio, view, t)

    def test_momentum_vs_reversal(self, drift_store):
        # SYM000 carries +2%/day drift, so momentum chases it and reversal
        # picks the weakest trend instead
        t = drift_store.calendar[30]
        view = view_until(drift_store, t)
        portfolio = _portfolio_with(["SYM000", "SYM001", "SYM002"], t)
        mom = SyntheticResearchAgent(agent_id="r0", noise_seed=1, belief="momentum") \
            .produce(portfolio, view, t)
        rev = SyntheticResearchAgent(agent_id="r1", noise_seed=1, belief="reversal") \
            .produce(portfolio, view, t)
        assert mom.symbol == "SYM000"
        assert rev.symbol != "SYM000"

    def test_symbols_outside_the_universe_are_skipped(self, drift_store):
        t = drift_store.calendar[30]
        portfolio = _portfolio_with(["SYM001", "ZZZ"], t, ratings=[1, 2])
        for belief in ("momentum", "reversal"):
            agent = SyntheticResearchAgent(agent_id="r0", noise_seed=1, belief=belief)
            signal = agent.produce(portfolio, view_until(drift_store, t), t)
            assert signal.symbol == "SYM001"
            assert "among 2 mentioned instruments" in signal.evidence[0]

    def test_no_view_uses_sentiment(self):
        t = D(2025, 1, 6)
        portfolio = _portfolio_with(["AAA", "BBB"], t, ratings=[2, -2])
        agent = SyntheticResearchAgent(agent_id="r0", noise_seed=2, belief="momentum")
        signal = agent.produce(portfolio, None, t)
        assert signal.symbol == "AAA"
        rev = SyntheticResearchAgent(agent_id="r1", noise_seed=2, belief="reversal") \
            .produce(portfolio, None, t)
        assert rev.symbol == "BBB"


class _CountedReads(tuple):
    """A factor's observations, counting the passes over them."""

    passes = 0

    def __iter__(self):
        _CountedReads.passes += 1
        return super().__iter__()


class TestSharedWork:
    """Work that every research agent of a day would repeat is done once."""

    @pytest.fixture()
    def streams(self, monkeypatch):
        built = []
        stream = agents_mod.stream
        monkeypatch.setattr(agents_mod, "stream",
                            lambda *names: built.append(names) or stream(*names))
        return built

    def test_momentum_and_reversal_build_no_noise_stream(self, drift_store, streams):
        t = drift_store.calendar[30]
        portfolio = _portfolio_with(["SYM000", "SYM001", "SYM002"], t)
        for belief in ("momentum", "reversal"):
            agent = SyntheticResearchAgent(agent_id="r0", noise_seed=1, belief=belief)
            for view in (view_until(drift_store, t), None):
                assert agent.produce(portfolio, view, t).action == "buy"
        assert streams == []

    def test_random_builds_one_stream_per_draw(self, drift_store, streams):
        t = drift_store.calendar[30]
        agent = SyntheticResearchAgent(agent_id="r0", noise_seed=11, belief="random")
        portfolio = _portfolio_with(["SYM000", "SYM002"], t)
        for n in (1, 2, 3):
            agent.produce(portfolio, view_until(drift_store, t), t)
            assert streams == [(11, "research", t.isoformat())] * n
        # a portfolio that mentions nothing is held without a draw
        agent.produce(empty_portfolio(t), view_until(drift_store, t), t)
        assert len(streams) == 3

    def test_a_day_derives_the_sentiment_and_text_once(self, drift_store, monkeypatch):
        t = drift_store.calendar[30]
        monkeypatch.setattr(_CountedReads, "passes", 0)
        obs = _CountedReads(Observation(text=f"note on {s}", rated_symbols=((s, r),))
                            for s, r in (("SYM000", 1), ("SYM001", -2), ("SYM002", 2)))
        factor = TextualFactor(agent_id="d0", date=t, observations=obs, token_length=9)
        portfolio = FactorPortfolio(date=t, selected=(("d0", factor),), total_tokens=9,
                                    total_utility=1.0)
        view = view_until(drift_store, t)
        beliefs = ("momentum", "reversal", "random")
        research = [SyntheticResearchAgent(agent_id=f"r{k}", noise_seed=k, belief=beliefs[k % 3])
                    for k in range(8)]
        signals = [agent.produce(portfolio, view, t) for agent in research]
        assert _CountedReads.passes == 1
        assert {s.symbol for s in signals} <= {"SYM000", "SYM001", "SYM002"}
        external = [ExternalResearchAgent(f"x{k}", "agent") for k in range(8)]
        texts = {agent.request(portfolio, view, t).factor_portfolio for agent in external}
        assert _CountedReads.passes == 2
        assert texts == {render_portfolio_text(portfolio)} == {
            "d0: note on SYM000 [SYM000:+1]\nd0: note on SYM001 [SYM001:-2]\n"
            "d0: note on SYM002 [SYM002:+2]"}
        # the derived values travel with the portfolio
        assert pickle.loads(pickle.dumps(portfolio)).sentiment == {
            "SYM000": 1, "SYM001": -2, "SYM002": 2}


class TestExternalProtocol:
    def _request(self, kind="data"):
        return AgentRequest(kind=kind, date=D(2025, 1, 2), agent_id="x0",
                            universe=("AAA", "BBB"))

    def test_happy_path_data(self):
        factor = external_agent_call(f"{STUB} ok", self._request("data"), timeout=20)
        assert isinstance(factor, TextualFactor)
        assert factor.observations[0].rated_symbols == (("AAA", 1),)

    def test_happy_path_research(self):
        signal = external_agent_call(f"{STUB} ok", self._request("research"), timeout=20)
        assert isinstance(signal, TradingSignal)
        assert signal.action == "buy"

    def test_rating_out_of_range(self):
        with pytest.raises(ProtocolError, match="rating out of range"):
            external_agent_call(f"{STUB} bad-rating", self._request("data"), timeout=20)

    def test_token_cap_exceeded(self):
        with pytest.raises(ProtocolError, match="token cap exceeded"):
            external_agent_call(f"{STUB} over-token", self._request("data"), timeout=20)

    def test_the_engine_charges_at_least_the_tokens_it_counts(self):
        factor = external_agent_call(f"{STUB} under-token", self._request("data"), timeout=20)
        assert factor.token_length == token_count(["steady volume uptick"]) == 5
        # a report above the count is charged as reported
        assert external_agent_call(f"{STUB} ok", self._request("data"), timeout=20) \
            .token_length == 6

    def test_malformed_json(self):
        with pytest.raises(ProtocolError, match="malformed JSON"):
            external_agent_call(f"{STUB} garbage", self._request("data"), timeout=20)

    def test_bad_action(self):
        with pytest.raises(ProtocolError, match="action"):
            external_agent_call(f"{STUB} bad-action", self._request("research"), timeout=20)

    def test_buy_without_evidence(self):
        with pytest.raises(ProtocolError, match="evidence"):
            external_agent_call(f"{STUB} no-evidence", self._request("research"), timeout=20)

    def test_timeout(self):
        with pytest.raises(AgentUnavailableError, match="timed out"):
            external_agent_call(f"{STUB} hang", self._request("data"), timeout=1.0)

    def test_empty_response(self):
        with pytest.raises(AgentUnavailableError):
            external_agent_call(f"{STUB} empty", self._request("data"), timeout=20)

    def test_crash(self):
        with pytest.raises(AgentUnavailableError, match="exited 3: stub agent: simulated crash"):
            external_agent_call(f"{STUB} crash", self._request("data"), timeout=20)

    def test_lingering_child_times_out(self):
        # a valid reply, then stdout and stderr closed but no exit: the
        # call waits for the exit, and only until the deadline
        start = time.monotonic()
        with pytest.raises(AgentUnavailableError, match="timed out"):
            external_agent_call(f"{STUB} linger", self._request("data"), timeout=1.0)
        assert time.monotonic() - start < 5

    def test_reply_over_the_size_bound(self):
        start = time.monotonic()
        with pytest.raises(ProtocolError, match=f"exceeds {MAX_REPLY_BYTES} bytes"):
            external_agent_call(f"{STUB} flood", self._request("data"), timeout=20)
        assert time.monotonic() - start < 10

    def test_request_longer_than_a_pipe_buffer(self):
        # the child reads its whole request before it writes, so the
        # request has to go through the pipe in several writes
        text = "d0: a long factor portfolio [AAA:+1]\n" * 2000
        req = AgentRequest(kind="research", date=D(2025, 1, 2), agent_id="x0",
                           universe=("AAA", "BBB"), factor_portfolio=text)
        assert len(req.to_json()) > 64 * 1024
        signal = external_agent_call(f"{STUB} ok", req, timeout=20)
        assert signal.symbol == "AAA" and signal.action == "buy"

    def test_child_that_reads_nothing(self):
        # `true` exits at once; writing the long request then meets a closed
        # pipe, which is not itself the failure: the missing reply is
        req = AgentRequest(kind="research", date=D(2025, 1, 2), agent_id="x0",
                           universe=("AAA",), factor_portfolio="x" * (1 << 18))
        with pytest.raises(AgentUnavailableError, match="no response line"):
            external_agent_call("true", req, timeout=20)

    def test_longest_allowed_timeout_fits_the_poll_wait(self):
        # one second more and poll's int-millisecond wait overflows
        req = AgentRequest(kind="data", date=D(2025, 1, 2), agent_id="x0", universe=("AAA",))
        with pytest.raises(AgentUnavailableError, match="no response line"):
            external_agent_call("true", req, timeout=MAX_TIMEOUT_S)

    def test_timeout_past_the_poll_wait_is_refused_before_the_call(self):
        req = AgentRequest(kind="data", date=D(2025, 1, 2), agent_id="x0", universe=("AAA",))
        with pytest.raises(ValueError, match=r"timeout: .* got 2147484 \(at most 2147483\)"):
            external_agent_call("true", req, timeout=MAX_TIMEOUT_S + 1)

    @pytest.mark.parametrize("cls", [ExternalDataAgent, ExternalResearchAgent])
    @pytest.mark.parametrize("kwargs, match", [
        ({"timeout": MAX_TIMEOUT_S + 1}, "timeout: must be a positive number of seconds"),
        ({"timeout": 0}, "timeout: must be a positive number of seconds"),
        ({"lookback": 0}, "lookback: must be >= 1"),
    ], ids=["timeout-huge", "timeout-0", "lookback-0"])
    def test_agent_refuses_bounds_outside_the_protocol(self, cls, kwargs, match):
        # lookback 0 would send every bar: calendar[-0:] is the whole calendar
        with pytest.raises(ValueError, match=match):
            cls(agent_id="x0", endpoint="true", **kwargs)

    @pytest.mark.parametrize("mode, error, match", [
        ("ok", None, None),
        ("hang", AgentUnavailableError, "timed out"),
        ("crash", AgentUnavailableError, "exited 3: stub agent: simulated crash"),
    ])
    def test_without_pidfd(self, monkeypatch, mode, error, match):
        def no_pidfd(pid):
            raise OSError("pidfd_open unavailable")
        monkeypatch.setattr(agents_mod.os, "pidfd_open", no_pidfd)
        if error is None:
            factor = external_agent_call(f"{STUB} {mode}", self._request("data"), timeout=20)
            assert factor.observations[0].rated_symbols == (("AAA", 1),)
        else:
            with pytest.raises(error, match=match):
                external_agent_call(f"{STUB} {mode}", self._request("data"), timeout=1.0)

    def test_bool_rating(self):
        with pytest.raises(ProtocolError, match="rating out of range"):
            external_agent_call(f"{STUB} bool-rating", self._request("data"), timeout=20)

    @pytest.mark.parametrize("kind", ["data", "research"])
    def test_reply_for_another_agent(self, kind):
        with pytest.raises(ProtocolError, match="impostor"):
            external_agent_call(f"{STUB} wrong-id", self._request(kind), timeout=20)

    def test_nesting_too_deep_to_parse(self, monkeypatch):
        monkeypatch.setattr(agents_mod, "_call_subprocesses",
                            lambda calls: ["[" * 100_000 for _ in calls])
        with pytest.raises(ProtocolError, match="malformed JSON"):
            external_agent_call("agent", self._request("data"), timeout=20)

    def test_request_schema(self, tiny_store):
        t = tiny_store.calendar[4]
        req = build_request("data", "x0", view_until(tiny_store, t), t, lookback=3)
        payload = json.loads(req.to_json())
        assert set(payload) == {"kind", "date", "agent_id", "universe", "bars",
                                "factor_portfolio"}
        assert payload["kind"] == "data"
        assert payload["factor_portfolio"] is None
        dates = {b["date"] for b in payload["bars"]}
        assert dates == {d.isoformat() for d in tiny_store.calendar[2:5]}

    def test_http_endpoint(self):
        def reply(req):
            return json.dumps({"agent_id": req["agent_id"], "date": req["date"],
                               "observations": [], "token_length": 0}).encode()

        with serve(reply) as url:
            factor = external_agent_call(url, self._request("data"), timeout=10)
        assert isinstance(factor, TextualFactor)
        assert factor.token_length == 0

    def test_http_reply_over_the_size_bound(self):
        start = time.monotonic()
        with serve(lambda req: b"x" * (MAX_REPLY_BYTES + 2)) as url:
            with pytest.raises(ProtocolError, match=f"exceeds {MAX_REPLY_BYTES} bytes"):
                external_agent_call(url, self._request("data"), timeout=20)
        assert time.monotonic() - start < 10


def stage_agents(*modes, timeout=20.0):
    """One external data agent per stub mode, ids ``x<i>-<mode>``."""
    return [ExternalDataAgent(f"x{i}-{mode.split()[0]}", f"{STUB} {mode}", timeout=timeout)
            for i, mode in enumerate(modes)]


def run_stage(store, agents):
    """The engine's data stage on day 5 of ``store``: (outputs by agent id,
    absent agent ids, seconds taken)."""
    t = store.calendar[5]
    absent = []
    start = time.monotonic()
    out = _collect(agents, (view_until(store, t), t), t, absent)
    return out, absent, time.monotonic() - start


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestConcurrentStage:
    def test_slow_agents_run_at_once(self, tiny_store):
        _, _, one = run_stage(tiny_store, stage_agents("slow"))
        out, absent, four = run_stage(tiny_store, stage_agents(*["slow"] * 4))
        assert sorted(out) == ["x0-slow", "x1-slow", "x2-slow", "x3-slow"] and not absent
        assert one >= SLOW_S and four < 2 * one  # one after another they take 4 * one
        assert_no_child_left()

    @pytest.mark.parametrize("pidfd", [True, False], ids=["pidfd", "no-pidfd"])
    def test_a_failing_agent_is_absent_alone(self, tiny_store, monkeypatch, pidfd):
        if not pidfd:
            monkeypatch.delattr(agents_mod.os, "pidfd_open", raising=False)
        timeout = 3.0
        agents = stage_agents("ok", "hang", "flood", "crash", "linger", "ok", timeout=timeout)
        agents.append(ExternalDataAgent("x6-missing", "/nonexistent/agent", timeout=timeout))
        out, absent, took = run_stage(tiny_store, agents)
        assert sorted(out) == ["x0-ok", "x5-ok"]
        assert all(f.date == tiny_store.calendar[5] for f in out.values())
        assert absent == ["x1-hang", "x2-flood", "x3-crash", "x4-linger", "x6-missing"]
        # hang and linger each run to their deadline, at the same time
        assert timeout <= took < timeout + 2.0
        assert_no_child_left()

    def test_more_agents_than_the_cap_wait_their_turn(self, tiny_store, monkeypatch):
        monkeypatch.setattr(agents_mod, "MAX_CHILDREN", 2)
        procs, live_at_start = [], []
        popen = agents_mod.subprocess.Popen

        def counting_popen(*args, **kwargs):
            live_at_start.append(sum(p.returncode is None for p in procs))
            procs.append(popen(*args, **kwargs))
            return procs[-1]

        monkeypatch.setattr(agents_mod.subprocess, "Popen", counting_popen)
        out, absent, took = run_stage(tiny_store, stage_agents(*["slow 0.3"] * 5))
        assert len(out) == 5 and not absent
        assert live_at_start == [0, 1, 1, 1, 1]  # each start waits for a reaped child
        assert took >= 3 * 0.3
        assert_no_child_left()

    def test_an_exception_in_the_loop_still_reaps_every_child(self, tiny_store, monkeypatch):
        def interrupted(self, key, sel):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(agents_mod._Child, "on_ready", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            run_stage(tiny_store, stage_agents("hang", "hang", "ok"))
        assert_no_child_left()

    def test_inline_and_spawned_agents_keep_agent_order(self, tiny_store):
        agents = [SyntheticDataAgent("s0", noise_seed=1), *stage_agents("ok"),
                  SyntheticDataAgent("s2", noise_seed=2)]
        out, absent, _ = run_stage(tiny_store, agents)
        assert list(out) == ["s0", "x0-ok", "s2"] and not absent


class TestExecutable:
    """A command-line agent's executable is found on the PATH once, as the
    agent is built, and the child still sees the command as written."""

    def test_a_bare_command_runs_from_the_path_at_load(self, tiny_store, tmp_path, monkeypatch):
        # a Python under another name, which prints the argv[0] it was given
        (tmp_path / "echo-argv0").symlink_to(sys.executable)
        code = ("import json, sys; req = json.loads(sys.stdin.readline()); "
                "print(json.dumps({'agent_id': req['agent_id'], 'date': req['date'], "
                "'observations': [{'text': sys.orig_argv[0]}], 'token_length': 1}))")
        monkeypatch.setenv("PATH", str(tmp_path))
        agent = ExternalDataAgent("x0", f"echo-argv0 -c {shlex.quote(code)}")
        assert agent._executable == str(tmp_path / "echo-argv0")
        monkeypatch.setenv("PATH", "")  # resolved at load: the call does not walk it
        out, absent, _ = run_stage(tiny_store, [agent])
        assert not absent and out["x0"].observations[0].text == "echo-argv0"
        assert_no_child_left()

    def test_a_missing_command_leaves_the_agent_absent(self, tiny_store, monkeypatch):
        monkeypatch.setenv("PATH", "")
        agent = ExternalDataAgent("x0", "no-such-agent-command")
        assert agent._executable is None
        t = tiny_store.calendar[5]
        [reply] = agents_mod.produce_all([agent], view_until(tiny_store, t), t)
        assert isinstance(reply, AgentUnavailableError)
        assert "agent process failed to start" in str(reply)
        out, absent, _ = run_stage(tiny_store, [agent])
        assert not out and absent == ["x0"]
        assert_no_child_left()


def test_importing_the_cli_leaves_urllib_request_unloaded():
    """Only http(s) agents need ``urllib.request``, so a run without one
    never pays for its import."""
    src = Path(agents_mod.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, tradecontest.cli; print('urllib.request' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@contextmanager
def serve(reply):
    """An HTTP agent on localhost answering each POST with ``reply(request)``."""
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            out = reply(json.loads(body))
            self.send_response(200)
            self.send_header("Content-Length", str(len(out)))
            self.end_headers()
            try:
                self.wfile.write(out)
            except ConnectionError:  # the client stopped reading
                pass

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/agent"
    finally:
        server.shutdown()
        server.server_close()


FACTOR = {"agent_id": "x0", "date": "2025-01-02", "token_length": 6,
          "observations": [{"text": "t", "rated_symbols": [["AAA", 1]]}]}
SIGNAL = {"agent_id": "x0", "date": "2025-01-02", "symbol": "AAA", "action": "buy",
          "evidence": ["e"], "limitation": ""}

# any JSON value, with object keys drawn mostly from the protocol's own fields
# so that nested shapes get past the first checks
FIELDS = sorted({*FACTOR, *SIGNAL, "text", "rated_symbols", "rating"})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5000) | st.floats()
    | st.text(max_size=12) | st.sampled_from(["buy", "2025-01-02", "x0"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4), inner, max_size=6),
    max_leaves=24,
)


class TestResponseShapes:
    @pytest.mark.parametrize("change", [
        {"observations": 5},
        {"observations": {"text": "t"}},
        {"observations": [5]},
        {"observations": ["text"]},
        {"observations": [{"text": "t", "rated_symbols": 5}]},
        {"observations": [{"text": "t", "rated_symbols": [5]}]},
        {"observations": [{"text": "t", "rated_symbols": [["AAA", 1, 2]]}]},
        {"observations": [{"text": "t", "rated_symbols": [["AAA", True]]}]},
        {"observations": [{"text": "t", "rated_symbols": [["AAA", 1.0]]}]},
        {"token_length": True},
        {"token_length": "6"},
        {"agent_id": 5},
        {"date": [2025, 1, 2]},
    ])
    def test_factor_shape_errors(self, change):
        parse_factor_response(FACTOR)
        with pytest.raises(ProtocolError):
            parse_factor_response({**FACTOR, **change})

    @pytest.mark.parametrize("change", [
        {"evidence": 5},
        {"evidence": "a string"},
        {"action": ["buy"]},
        {"agent_id": None},
        {"date": "yesterday"},
    ])
    def test_signal_shape_errors(self, change):
        parse_signal_response(SIGNAL)
        with pytest.raises(ProtocolError):
            parse_signal_response({**SIGNAL, **change})

    @pytest.mark.parametrize("payload", [5, "x", None, [FACTOR], True])
    def test_reply_must_be_an_object(self, payload):
        for parse in (parse_factor_response, parse_signal_response):
            with pytest.raises(ProtocolError):
                parse(payload)

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_any_json_value_parses_or_raises_protocol_error(self, payload):
        for parse in (parse_factor_response, parse_signal_response):
            try:
                parse(payload)
            except ProtocolError:
                pass


def reference_line(kind, agent_id, store, t, portfolio_text=None, lookback=30):
    """The request encoder from before windows were cached: one dict per
    bar per call, then ``json.dumps(payload, sort_keys=True)``. The bars are
    the store's on its last ``lookback`` days up to ``t``."""
    bars = []
    if store is not None:
        held = bar_map(store)
        for day in [d for d in store.calendar if d <= t][-lookback:]:
            for sym in store.symbols:
                if (b := held.get((sym, day))) is not None:
                    bars.append({
                        "date": b.date.isoformat(), "symbol": b.symbol,
                        "open": b.open, "high": b.high, "low": b.low,
                        "close": b.close, "volume": b.volume,
                    })
    payload = {
        "kind": kind, "date": t.isoformat(), "agent_id": agent_id,
        "universe": list(store.symbols) if store is not None else [],
        "bars": bars, "factor_portfolio": portfolio_text,
    }
    return json.dumps(payload, sort_keys=True)


def fake_endpoint(lines):
    """A stand-in for ``_call_subprocesses``, the seam every command-line
    agent call goes through, that records each request line and answers it
    validly, echoing the agent id and date."""
    def answer_all(calls):
        return [answer(line.decode()) for _, _, line, _ in calls]

    def answer(line):
        lines.append(line)
        req = json.loads(line)
        head = {"agent_id": req["agent_id"], "date": req["date"]}
        if req["kind"] == "data":
            return json.dumps({**head, "token_length": 6, "observations": [
                {"text": "steady", "rated_symbols": [[req["universe"][0], 1]]}]})
        sym = req["universe"][0] if req["universe"] else "CASH"
        return json.dumps({**head, "symbol": sym, "action": "buy" if req["universe"] else "hold",
                           "evidence": ["e"], "limitation": ""})
    return answer_all


# sha256 of every request line of the run in test_pinned_run_request_bytes,
# recorded with the per-call encoder that reference_line keeps
PINNED_REQUESTS_SHA256 = "c46b6677467aa240a7b90fe5d8ac4eacc5d742ebb7229dc67ce077331ca6f7dc"


class TestRequestBytes:
    @pytest.mark.parametrize("agent_id", ["x0", "agént-☃", 'q"uo\\te\nnl'])
    @pytest.mark.parametrize("text", [None, "", "d0: snow ☃ \"up\"\n\ttabbed [SYM000:+1]"])
    @pytest.mark.parametrize("kind", ["data", "research"])
    def test_ids_and_texts(self, tiny_store, kind, agent_id, text):
        t = tiny_store.calendar[6]
        view = view_until(tiny_store, t)
        req = build_request(kind, agent_id, view, t, portfolio_text=text, lookback=4)
        assert req.to_json() == reference_line(kind, agent_id, tiny_store, t, text, 4)

    @pytest.mark.parametrize("day", [0, 1, 5, 11])
    @pytest.mark.parametrize("lookback", [1, 3, 30])
    def test_windows(self, tiny_store, day, lookback):
        t = tiny_store.calendar[day]
        view = view_until(tiny_store, t)
        req = build_request("data", "x0", view, t, lookback=lookback)
        assert req.to_json() == reference_line("data", "x0", tiny_store, t, None, lookback)

    def test_symbol_with_missing_bars(self, tiny_store):
        gaps = {("SYM001", tiny_store.calendar[3]), ("SYM001", tiny_store.calendar[4]),
                ("SYM002", tiny_store.calendar[8])}
        store = store_of([b for b in tiny_store.iter_bars() if (b.symbol, b.date) not in gaps])
        for day in (4, 8, 10):
            t = store.calendar[day]
            view = view_until(store, t)
            req = build_request("research", "r0", view, t, portfolio_text="p", lookback=6)
            assert req.to_json() == reference_line("research", "r0", store, t, "p", 6)

    def test_empty_universe(self):
        t = D(2025, 1, 2)
        req = AgentRequest(kind="research", date=t, agent_id="r0", universe=(),
                           factor_portfolio="d0: x")
        assert req.to_json() == reference_line("research", "r0", None, t, "d0: x")

    def test_agents_on_one_day_share_the_window(self, tiny_store, monkeypatch):
        sent = []
        monkeypatch.setattr(agents_mod, "external_agent_call",
                            lambda endpoint, req, timeout: sent.append(req))
        t = tiny_store.calendar[7]
        view = view_until(tiny_store, t)
        for agent_id in ("x0", "x1"):
            ExternalDataAgent(agent_id, "agent", lookback=5).produce(view, t)
        ExternalResearchAgent("r0", "agent", lookback=5).produce(None, view, t)
        assert len(sent) == 3 and len(json.loads(sent[0].bars)) == 5 * 3
        assert sent[0].bars is sent[1].bars is sent[2].bars
        assert view.bars_json(3) is not sent[0].bars

    def test_pinned_run_request_bytes(self, monkeypatch):
        lines = []
        monkeypatch.setattr(agents_mod, "_call_subprocesses", fake_endpoint(lines))
        # one core: the data agents' calls run in this process, where `lines` records them
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        store = generate_synthetic(SyntheticSpec(n_symbols=4, n_days=24, daily_vol=0.01), 5)
        data = [ExternalDataAgent("x0", "agent", lookback=3),
                ExternalDataAgent('xé"1', "agent", lookback=40)]
        research = [ExternalResearchAgent("r0", "agent", lookback=5)]
        for deep_inputs_cut in (False, True):
            config = ContestConfig(predictor="baseline", seed=3,
                                   no_deep_inputs=deep_inputs_cut)
            list(run_full(config, store, data, research))
        assert len(lines) == 144
        blob = "".join(lines).encode()
        assert hashlib.sha256(blob).hexdigest() == PINNED_REQUESTS_SHA256


def test_render_portfolio_text():
    t = D(2025, 1, 6)
    portfolio = _portfolio_with(["AAA"], t)
    text = render_portfolio_text(portfolio)
    assert "AAA" in text and "d0" in text
    assert render_portfolio_text(None) == ""


class TestCountedTokens:
    """The factor portfolio charges a factor the tokens the engine counts,
    not the fewer its agent reports: the stub's text counts 5 tokens and it
    reports 1."""

    def _selected(self, tmp_path, budget):
        cfg = write_config(
            tmp_path / "run.yaml",
            data={"kind": "synthetic", "n_symbols": 4, "n_days": 40, "daily_vol": 0.01,
                  "planted": [{"symbol": "SYM000", "start_day": 0, "drift": 0.01}]},
            agents={"data": [{"kind": "external", "agent_id": "x0", "timeout": 30,
                              "endpoint": f"{STUB} under-token"}],
                    "research": [{"kind": "synthetic", "agent_id": "r00", "belief": "momentum"}]},
            contest={"predictor": "baseline", "budget": budget})
        assert main(["backtest", str(cfg)]) == 0
        ledger = expand_portfolio_refs((tmp_path / "out" / "ledger.jsonl").read_bytes())
        return [json.loads(line)["portfolio"] for line in ledger.splitlines()]

    def test_the_ledger_and_the_knapsack_use_the_counted_figure(self, tmp_path):
        portfolios = self._selected(tmp_path, budget=5)
        held = [p for p in portfolios if p["selected"]]
        assert held
        for p in held:
            assert [s["factor"]["token_length"] for s in p["selected"]] == [5]
            assert p["total_tokens"] == 5

    def test_a_budget_under_the_count_selects_nothing(self, tmp_path):
        assert not any(p["selected"] for p in self._selected(tmp_path, budget=4))
