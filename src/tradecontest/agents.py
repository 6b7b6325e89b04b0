"""Agent boundary: output contracts, synthetic agents, external adapters.

Data agents emit a TextualFactor per day (observations with per-symbol
conviction ratings, length-capped). Research agents emit a TradingSignal.
A synthetic agent's output depends only on its own fields, the day and
the market view, so runs replay bit-exactly; the external adapter speaks
one-line JSON over a child process's stdio or HTTP POST and enforces all
contract invariants before accepting a response.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import os
import selectors
import shlex
import shutil
import subprocess
import time
from collections import deque
from dataclasses import dataclass
from typing import ClassVar

from .errors import AgentUnavailableError, ProtocolError
from .market import MarketView
from .seeding import stream

TOKEN_CAP = 4096
RATING_SET = (-2, -1, 0, 1, 2)
ACTIONS = ("buy", "hold", "sell")
CASH_SYMBOL = "CASH"

MOMENTUM_WINDOW = 5

MAX_REPLY_BYTES = 1 << 20  # longest reply body an external agent may send
MAX_TIMEOUT_S = 2_147_483  # poll waits at most 2**31 - 1 ms
_STDERR_KEEP = 1024  # bytes of an agent's stderr kept for the error message
AGENT_FAILURES = (AgentUnavailableError, ProtocolError)  # what makes an agent absent
MAX_CHILDREN = 32  # agent processes one stage runs at once; the rest wait their turn
_REAP_POLL_S = 0.005  # how often a child without a pidfd is polled once its pipes close


@dataclass(frozen=True)
class Observation:
    """One atomic statement grounded to rated instruments."""

    text: str
    rated_symbols: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        for sym, rating in self.rated_symbols:
            if rating not in RATING_SET:
                raise ValueError(f"rating out of range: {sym} rated {rating}")


@dataclass(frozen=True)
class TextualFactor:
    """One data agent's daily output; the unit of portfolio selection."""

    agent_id: str
    date: dt.date
    observations: tuple[Observation, ...]
    token_length: int

    def __post_init__(self):
        if self.token_length > TOKEN_CAP:
            raise ValueError(f"token cap exceeded: {self.token_length} > {TOKEN_CAP}")
        if self.observations and self.token_length < 1:
            raise ValueError("token_length must be >= 1 for a nonempty factor")
        if self.token_length < 0:
            raise ValueError("token_length must be >= 0")


@dataclass(frozen=True)
class TradingSignal:
    """One research agent's daily output."""

    agent_id: str
    date: dt.date
    symbol: str
    action: str
    evidence: tuple[str, ...] = ()
    limitation: str = ""

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"action must be one of {ACTIONS}, got {self.action!r}")
        if self.action in ("buy", "sell") and not self.evidence:
            raise ValueError(f"evidence required for a {self.action} signal")


def token_count(texts) -> int:
    """Character-based token heuristic: ceil(total characters / 4)."""
    chars = sum(len(t) for t in texts)
    return math.ceil(chars / 4)


@dataclass(frozen=True)
class _SyntheticAgent:
    """A deterministic stand-in agent: its output is a function of its
    fields, the day and the view alone, so runs replay bit-exactly. It is
    also a synthetic entry of a config's ``agents`` section, where a
    missing ``noise_seed`` is derived from the run's seed."""

    kind: ClassVar[str] = "synthetic"
    agent_id: str
    skill: float = 0.0
    obs_per_day: int = 3
    belief: str = "momentum"  # momentum | reversal | random
    noise_seed: int | None = None

    def __post_init__(self):
        if not (0.0 <= self.skill <= 1.0):
            raise ValueError("skill must be in [0, 1]")
        if self.obs_per_day < 0:
            raise ValueError("obs_per_day must be >= 0")
        if self.belief not in ("momentum", "reversal", "random"):
            raise ValueError(f"unknown belief {self.belief!r}")


class SyntheticDataAgent(_SyntheticAgent):
    def produce(self, view: MarketView, t: dt.date) -> TextualFactor:
        """Each observation is, with probability ``skill``, an informed read:
        the agent rates a strong-trend symbol in the direction of its own
        trailing momentum, which on a drifting market tracks the realized
        next-day move. Otherwise the observation is a random symbol with a
        random rating. The agent sees only the view (dates <= t) and a noise
        stream keyed by (noise_seed, t); it never reads ahead.
        """
        rng = stream(self.noise_seed, "data", t.isoformat())
        universe = view.symbols
        momentum, ranked = view.momentum(MOMENTUM_WINDOW)

        observations = []
        texts = []
        for k in range(self.obs_per_day):
            informed = ranked and rng.random() < self.skill
            if informed:
                sym = ranked[k % len(ranked)]
                m = momentum[sym]
                direction = 0 if m == 0 else (1 if m > 0 else -1)
                rating = direction * (2 if abs(m) > 0.01 else 1)
                text = (f"{sym} has averaged {m:+.4f} per session over the last "
                        f"{MOMENTUM_WINDOW} trading days; stance {rating:+d}.")
            elif universe:
                sym = universe[int(rng.integers(len(universe)))]
                rating = int(rng.integers(-2, 3))
                text = f"No conviction read on {sym} today; speculative stance {rating:+d}."
            else:
                continue
            observations.append(Observation(text=text, rated_symbols=((sym, rating),)))
            texts.append(text)

        return TextualFactor(
            agent_id=self.agent_id,
            date=t,
            observations=tuple(observations),
            token_length=token_count(texts),
        )


class SyntheticResearchAgent(_SyntheticAgent):
    def produce(self, portfolio, view: MarketView | None, t: dt.date) -> TradingSignal:
        """Picks among the symbols mentioned in the factor portfolio: momentum
        buys the strongest trailing 5-day return, reversal the weakest,
        random draws from its noise stream. Without a market view (deep
        inputs cut off) momentum/reversal fall back to the portfolio's net
        sentiment. Emits hold when the portfolio mentions nothing.
        """
        sentiment = portfolio.sentiment if portfolio is not None else {}
        mentioned = sorted(sentiment)
        if not mentioned:
            return TradingSignal(
                agent_id=self.agent_id, date=t, symbol=CASH_SYMBOL, action="hold",
                limitation="factor portfolio mentions no instruments",
            )

        if self.belief == "random":  # the one belief that draws from its noise stream
            rng = stream(self.noise_seed, "research", t.isoformat())
            sym = mentioned[int(rng.integers(len(mentioned)))]
            action = ACTIONS[int(rng.integers(len(ACTIONS)))]
            if action == "hold":
                return TradingSignal(
                    agent_id=self.agent_id, date=t, symbol=sym, action="hold",
                    limitation="no edge identified; staying in cash",
                )
            return TradingSignal(
                agent_id=self.agent_id, date=t, symbol=sym, action=action,
                evidence=(f"speculative {action} of {sym}",),
                limitation="randomized belief; evidence is not data-backed",
            )

        if view is not None:  # symbols outside the universe have no history
            means, _ = view.momentum(MOMENTUM_WINDOW)
            score = {s: means[s] for s in mentioned if s in means}
            basis = f"trailing {MOMENTUM_WINDOW}-day mean return"
        else:
            score = {s: float(sentiment[s]) for s in mentioned}
            basis = "net factor-portfolio sentiment"
        if not score:
            return TradingSignal(
                agent_id=self.agent_id, date=t, symbol=CASH_SYMBOL, action="hold",
                limitation="no usable history for mentioned instruments",
            )
        target = max(score.values()) if self.belief == "momentum" else min(score.values())
        best = min(s for s in score if score[s] == target)  # lexicographic tie-break
        return TradingSignal(
            agent_id=self.agent_id, date=t, symbol=best, action="buy",
            evidence=(
                f"{best} ranks {'highest' if self.belief == 'momentum' else 'lowest'} "
                f"on {basis} ({score[best]:+.4f}) among {len(mentioned)} mentioned instruments",
                f"belief bias: {self.belief}",
            ),
            limitation="synthetic belief agent; uses price history only",
        )


# --- external JSON-line protocol ------------------------------------------


@dataclass(frozen=True)
class AgentRequest:
    """One request to an external agent; serializes to a single JSON line."""

    kind: str  # "data" | "research"
    date: dt.date
    agent_id: str
    universe: tuple[str, ...]
    bars: str = "[]"  # a JSON array, encoded once per day by MarketView.bars_json
    factor_portfolio: str | None = None

    def to_json(self) -> str:
        """The fields as ``json.dumps(fields, sort_keys=True)`` writes them."""
        enc = json.dumps
        return (f'{{"agent_id": {enc(self.agent_id)}, "bars": {self.bars}, '
                f'"date": "{self.date.isoformat()}", "factor_portfolio": '
                f'{enc(self.factor_portfolio)}, "kind": {enc(self.kind)}, '
                f'"universe": {enc(list(self.universe))}}}')


def build_request(kind: str, agent_id: str, view: MarketView, t: dt.date,
                  portfolio_text: str | None = None, lookback: int = 30) -> AgentRequest:
    """Request payload using only data visible through the view."""
    return AgentRequest(kind=kind, date=t, agent_id=agent_id, universe=view.symbols,
                        bars=view.bars_json(lookback), factor_portfolio=portfolio_text)


_MISSING = object()


def _field(obj, key: str, kind: type = object, default=_MISSING):
    """``obj[key]``: present unless ``default`` is given, and a ``kind``."""
    if not isinstance(obj, dict):
        raise ProtocolError(f"expected a JSON object holding {key!r}, got {obj!r:.80}")
    value = obj.get(key, default)
    if value is _MISSING:
        raise ProtocolError(f"missing field {key!r} in agent response")
    if not isinstance(value, kind):
        raise ProtocolError(f"field {key!r} must be a {kind.__name__}, got {value!r:.80}")
    return value


def parse_factor_response(payload) -> TextualFactor:
    observations = []
    for i, obs in enumerate(_field(payload, "observations", list)):
        rated = []
        for pair in _field(obs, "rated_symbols", list, []):
            if isinstance(pair, dict):
                sym, rating = pair.get("symbol"), pair.get("rating")
            elif isinstance(pair, list) and len(pair) == 2:
                sym, rating = pair
            else:
                raise ProtocolError(f"observation {i}: rated_symbols entries must be pairs")
            # bool is a subclass of int, so only an exact int is a rating
            if type(rating) is not int or rating not in RATING_SET:
                raise ProtocolError(f"rating out of range: {sym} rated {rating}")
            rated.append((str(sym), rating))
        observations.append(Observation(text=str(obs.get("text", "")), rated_symbols=tuple(rated)))
    token_length = _field(payload, "token_length")
    if type(token_length) is not int or token_length < 0:
        raise ProtocolError(f"token_length must be a non-negative integer, got {token_length!r}")
    # the engine charges at least its own count, whatever the agent reports
    token_length = max(token_length, token_count(o.text for o in observations))
    if token_length > TOKEN_CAP:
        raise ProtocolError(f"token cap exceeded: {token_length} > {TOKEN_CAP}")
    try:
        return TextualFactor(
            agent_id=_field(payload, "agent_id", str),
            date=dt.date.fromisoformat(str(_field(payload, "date"))),
            observations=tuple(observations),
            token_length=token_length,
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def parse_signal_response(payload) -> TradingSignal:
    action = _field(payload, "action")
    if action not in ACTIONS:
        raise ProtocolError(f"action must be one of {ACTIONS}, got {action!r}")
    evidence = tuple(str(e) for e in _field(payload, "evidence", list, []))
    try:
        return TradingSignal(
            agent_id=_field(payload, "agent_id", str),
            date=dt.date.fromisoformat(str(_field(payload, "date"))),
            symbol=str(_field(payload, "symbol")),
            action=action,
            evidence=evidence,
            limitation=str(payload.get("limitation", "")),
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def check_call_bounds(timeout: float, lookback: int | None = None) -> None:
    """ValueError unless ``timeout`` is in (0, MAX_TIMEOUT_S] seconds and
    ``lookback``, when given, is at least one day. Each message starts with
    the name of the value it rejects."""
    if not 0 < timeout <= MAX_TIMEOUT_S:
        raise ValueError(f"timeout: must be a positive number of seconds, got {timeout!r} "
                         f"(at most {MAX_TIMEOUT_S})")
    if lookback is not None and lookback < 1:
        raise ValueError("lookback: must be >= 1")


def parse_endpoint(endpoint: str) -> str | tuple[str, ...]:
    """An http(s) URL as given, or a command line split into the child's
    argv; ValueError, its message starting ``endpoint:``, if the command is
    blank or cannot be split."""
    if endpoint.startswith(("http://", "https://")):
        return endpoint
    try:
        argv = tuple(shlex.split(endpoint))
    except ValueError as exc:
        raise ValueError(f"endpoint: {exc}") from None
    if not argv:
        raise ValueError("endpoint: blank command")
    return argv


class _Child:
    """One command-line agent's process in a stage's poll loop: the request
    bytes still to write, the reply and stderr head read so far, and the
    fds the loop still watches."""

    def __init__(self, argv: tuple[str, ...], executable: str | None, line: bytes,
                 timeout: float):
        self.timeout = timeout
        self.deadline = time.monotonic() + timeout  # counted from this child's own start
        self.proc = subprocess.Popen(argv, executable=executable, bufsize=0,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
        self.pending = memoryview(line)
        self.out, self.err = bytearray(), bytearray()
        self.error: AgentUnavailableError | ProtocolError | None = None
        self.pidfd: int | None = None
        self.watched: list = []

    def watch(self, sel: selectors.BaseSelector) -> None:
        """Register the child's pipes, and its pidfd where the platform has
        one; done once the child is in the loop's list, which reaps it."""
        proc = self.proc
        os.set_blocking(proc.stdin.fileno(), False)
        try:  # readable once the child exits; without one, poll() after the pipes close
            self.pidfd = os.pidfd_open(proc.pid)
        except (AttributeError, OSError):
            pass
        for fileobj in (proc.stdin, proc.stdout, proc.stderr, self.pidfd):
            if fileobj is not None:
                sel.register(fileobj, selectors.EVENT_WRITE if fileobj is proc.stdin
                             else selectors.EVENT_READ, self)
                self.watched.append(fileobj)

    def _unwatch(self, sel: selectors.BaseSelector, fileobj) -> None:
        sel.unregister(fileobj)
        self.watched.remove(fileobj)

    def on_ready(self, key: selectors.SelectorKey, sel: selectors.BaseSelector) -> None:
        """Write what the child's stdin takes, read what one of its pipes
        holds, or reap it once its pidfd says it has exited. A child that
        exits without reading its request is not itself an error."""
        proc = self.proc
        if key.fileobj is proc.stdin:
            try:
                self.pending = self.pending[os.write(key.fd, self.pending):]
            except BlockingIOError:
                return
            except BrokenPipeError:
                self.pending = self.pending[:0]
            if not self.pending:
                self._unwatch(sel, proc.stdin)
                proc.stdin.close()
        elif key.fd == self.pidfd:
            self._unwatch(sel, self.pidfd)
            proc.wait()  # the child has exited: this only reaps it
        elif chunk := os.read(key.fd, 1 << 16):
            if key.fileobj is proc.stdout:
                self.out += chunk
                if len(self.out) > MAX_REPLY_BYTES:
                    self.error = ProtocolError(f"agent reply exceeds {MAX_REPLY_BYTES} bytes")
            else:
                self.err += chunk[:_STDERR_KEEP - len(self.err)]
        else:
            self._unwatch(sel, key.fileobj)

    def done(self) -> bool:
        """True once the child has closed its pipes and been reaped, or its
        call has failed: over the size bound, or past its deadline."""
        if not self.watched and self.proc.poll() is not None:
            return True
        if self.error is None and time.monotonic() >= self.deadline:
            self.error = AgentUnavailableError(f"agent process timed out after {self.timeout}s")
        return self.error is not None

    def close(self, sel: selectors.BaseSelector) -> None:
        """Stop watching the child, kill it if it still runs, reap it, and
        close its pipes and pidfd."""
        for fileobj in self.watched:
            sel.unregister(fileobj)
        self.watched = []
        proc = self.proc
        if proc.returncode is None:
            proc.kill()
        proc.wait()
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            pipe.close()
        if self.pidfd is not None:
            os.close(self.pidfd)

    def reply(self) -> str | AgentUnavailableError | ProtocolError:
        """The first line the child printed, or the error that ended its call."""
        if self.error is not None:
            return self.error
        if self.proc.returncode != 0:
            return AgentUnavailableError(
                f"agent process exited {self.proc.returncode}: "
                f"{self.err.decode(errors='replace')[:200]}")
        out = self.out.decode(errors="replace").strip()
        if not out:
            return AgentUnavailableError("agent process produced no response line")
        return out.splitlines()[0]


def _poll_wait(running) -> float:
    """Seconds the stage's poll may block: up to the nearest deadline, and
    at most _REAP_POLL_S while a child without a pidfd waits to be reaped."""
    now = time.monotonic()
    wait = min((c.deadline for c in running), default=now) - now
    if any(not c.watched for c in running):
        wait = min(wait, _REAP_POLL_S)
    return max(wait, 0.0)


def _call_subprocesses(calls) -> list[str | AgentUnavailableError | ProtocolError]:
    """Run each (argv, executable, request line in bytes, timeout) call as a
    child process, up to MAX_CHILDREN at once, and return in call order the
    first line each child printed, or the error that ended its call. An
    ``executable`` of None is looked up on the PATH at the spawn.

    One poll loop on this thread writes every request, drains every stdout
    and stderr, and reaps every child. Each child's deadline counts from its
    own start, and one that passes it or sends more than MAX_REPLY_BYTES is
    killed alone. Every child started is reaped before this returns or
    raises."""
    replies: list = [None] * len(calls)
    queue = deque(enumerate(calls))
    running: dict[_Child, int] = {}
    with selectors.PollSelector() as sel:
        try:
            while queue or running:
                while queue and len(running) < MAX_CHILDREN:
                    i, (argv, executable, line, timeout) = queue.popleft()
                    try:
                        child = _Child(argv, executable, line, timeout)
                    except OSError as exc:
                        replies[i] = AgentUnavailableError(f"agent process failed to start: {exc}")
                        continue
                    running[child] = i
                    child.watch(sel)
                for key, _ in sel.select(_poll_wait(running)):
                    key.data.on_ready(key, sel)
                for child in [c for c in running if c.done()]:
                    child.close(sel)
                    replies[running.pop(child)] = child.reply()
        finally:
            for child in running:
                child.close(sel)
    return replies


def _call_http(url: str, line: str, timeout: float) -> str:
    import urllib.error  # only http(s) agents need them
    import urllib.request

    req = urllib.request.Request(
        url, data=line.encode(), headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            body = resp.read(MAX_REPLY_BYTES + 1)
    except (urllib.error.URLError, TimeoutError, OSError) as exc:
        raise AgentUnavailableError(f"agent endpoint unreachable: {exc}") from exc
    if len(body) > MAX_REPLY_BYTES:
        raise ProtocolError(f"agent reply exceeds {MAX_REPLY_BYTES} bytes")
    body = body.decode(errors="replace").strip()
    if not body:
        raise AgentUnavailableError("agent endpoint returned an empty body")
    return body.splitlines()[0]


def _parse_reply(raw: str, request: AgentRequest):
    """The validated reply to ``request`` in the line ``raw``."""
    try:
        payload = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"malformed JSON from agent: {exc}") from exc
    parse = parse_factor_response if request.kind == "data" else parse_signal_response
    reply = parse(payload)
    if reply.agent_id != request.agent_id:
        raise ProtocolError(f"reply from {reply.agent_id!r} to a request for {request.agent_id!r}")
    return reply


def external_agent_call(endpoint, request: AgentRequest, timeout: float = 60.0):
    """Send one request line, read one response line, validate, return.

    ``endpoint`` is either an http(s) URL (POST) or a command line to run
    as a child process reading stdin and writing stdout, given as a string
    or already split by ``parse_endpoint``.
    """
    check_call_bounds(timeout)
    if isinstance(endpoint, str):
        endpoint = parse_endpoint(endpoint)
    line = request.to_json() + "\n"
    if isinstance(endpoint, str):
        raw = _call_http(endpoint, line, timeout)
    else:
        raw, = _call_subprocesses([(endpoint, None, line.encode(), timeout)])
        if isinstance(raw, Exception):
            raise raw
    return _parse_reply(raw, request)


@dataclass(frozen=True)
class _ExternalAgent:
    """An agent behind an endpoint, and an external entry of a config's
    ``agents`` section."""

    kind: ClassVar[str] = "external"
    agent_id: str
    endpoint: str
    timeout: float = 60.0
    lookback: int = 30

    def __post_init__(self):
        check_call_bounds(self.timeout, self.lookback)
        # split, and the command found on the PATH, once, not per call
        target = parse_endpoint(self.endpoint)
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_executable",
                           None if isinstance(target, str) else shutil.which(target[0]))

    def produce(self, *args):
        """This agent's reply to ``self.request(*args)``, called alone."""
        return external_agent_call(self._target, self.request(*args), timeout=self.timeout)


class ExternalDataAgent(_ExternalAgent):
    def request(self, view: MarketView, t: dt.date) -> AgentRequest:
        return build_request("data", self.agent_id, view, t, lookback=self.lookback)


class ExternalResearchAgent(_ExternalAgent):
    def request(self, portfolio, view: MarketView | None, t: dt.date) -> AgentRequest:
        text = render_portfolio_text(portfolio)
        if view is None:
            return AgentRequest(kind="research", date=t, agent_id=self.agent_id,
                                universe=(), factor_portfolio=text)
        return build_request("research", self.agent_id, view, t,
                             portfolio_text=text, lookback=self.lookback)


def spawns(agent) -> bool:
    """True for a command-line agent: each of its calls starts a process."""
    return isinstance(agent, _ExternalAgent) and not isinstance(agent._target, str)


def produce_all(agents, *args) -> list:
    """``agent.produce(*args)`` of each agent, in agent order, or the error
    of AGENT_FAILURES it failed with. Command-line agents run at once,
    through _call_subprocesses; every other agent, synthetic or http(s),
    runs inline, in order."""
    outputs: list = []
    spawned = []  # (position in outputs, agent, request)
    for agent in agents:
        if spawns(agent):
            spawned.append((len(outputs), agent, agent.request(*args)))
            outputs.append(None)
            continue
        try:
            outputs.append(agent.produce(*args))
        except AGENT_FAILURES as exc:
            outputs.append(exc)
    replies = _call_subprocesses([(agent._target, agent._executable,
                                   (request.to_json() + "\n").encode(), agent.timeout)
                                  for _, agent, request in spawned])
    for (i, _, request), raw in zip(spawned, replies):
        try:
            outputs[i] = raw if isinstance(raw, Exception) else _parse_reply(raw, request)
        except ProtocolError as exc:
            outputs[i] = exc
    return outputs


def render_portfolio_text(portfolio) -> str:
    """The active factor portfolio flattened into the text block fed to
    research agents, rendered once per portfolio (``FactorPortfolio.text``)."""
    return "" if portfolio is None else portfolio.text
