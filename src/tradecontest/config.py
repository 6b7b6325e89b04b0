"""Run configuration: YAML file schema, validation, and round-tripping.

One file describes a full run: data source, train/test period, agent
roster, contest parameters, and backtest rules. Everything random in a
run derives from the single root seed, so rerunning a config reproduces
outputs byte for byte and ablation variants stay paired.

The section dataclasses are the schema: each field is one YAML key,
named as in the file, with its type and default. ``from_dict`` and
``to_dict`` walk those fields, so a key is declared in exactly one place.
Where the program already has a type for a section (``BacktestRules``,
``PlantedEffect``), that type is the section.
"""

import dataclasses
import datetime as dt
import math
import types
import typing
from dataclasses import dataclass, field

import yaml

from .agents import (
    ExternalDataAgent,
    ExternalResearchAgent,
    SyntheticAgentSpec,
    SyntheticDataAgent,
    SyntheticResearchAgent,
    check_call_bounds,
    parse_endpoint,
)
from .backtest import BacktestRules
from .engine import ContestConfig
from .errors import ConfigurationError, CsvFormatError
from .market import MarketStore, PlantedEffect, SyntheticSpec, generate_synthetic, ingest_csv
from .prediction import PredictorSpec
from .seeding import child_seed

DEFAULT_DATA_AGENTS = 16
DEFAULT_RESEARCH_AGENTS = 8


def _date(value, where: str) -> dt.date:
    if isinstance(value, dt.date):
        return value
    try:
        return dt.date.fromisoformat(str(value))
    except ValueError:
        raise ConfigurationError(f"{where}: bad date {value!r}") from None


@dataclass(frozen=True)
class DataSection:
    kind: str = "synthetic"  # synthetic | csv
    csv_path: str | None = None
    n_symbols: int = 10
    n_days: int = 250
    daily_vol: float = 0.02
    limit_pct: float = 0.10
    start: dt.date = dt.date(2024, 1, 2)
    start_price: float = 100.0
    planted: tuple[PlantedEffect, ...] = ()

    def validate(self, where: str):
        if self.kind not in ("synthetic", "csv"):
            raise ConfigurationError(f"{where}.kind: must be synthetic or csv, got {self.kind!r}")
        if self.kind == "csv" and not self.csv_path:
            raise ConfigurationError(f"{where}.csv_path: required when data.kind is csv")


@dataclass(frozen=True)
class PeriodSection:
    train_start: dt.date | None = None
    train_end: dt.date | None = None
    test_start: dt.date | None = None
    test_end: dt.date | None = None

    def validate(self, where: str):
        if self.test_start is not None and self.train_end is not None:
            if self.test_start <= self.train_end:
                raise ConfigurationError(
                    f"{where}: train/test overlap (train_end {self.train_end} >= "
                    f"test_start {self.test_start})"
                )
        if self.train_start is not None and self.train_end is not None:
            if self.train_end < self.train_start:
                raise ConfigurationError(f"{where}: train_end before train_start")
        if self.test_start is not None and self.test_end is not None:
            if self.test_end < self.test_start:
                raise ConfigurationError(f"{where}: test_end before test_start")


# the keys each agent kind writes back; None values are left out
_ENTRY_KEYS = {
    "synthetic": ("kind", "agent_id", "skill", "obs_per_day", "belief", "noise_seed"),
    "external": ("kind", "agent_id", "endpoint", "timeout", "lookback"),
}


@dataclass(frozen=True)
class AgentEntry:
    agent_id: str
    kind: str = "synthetic"  # synthetic | external
    skill: float = 0.0
    obs_per_day: int = 3
    belief: str = "momentum"
    endpoint: str | None = None
    timeout: float = 60.0
    lookback: int = 30
    noise_seed: int | None = None

    def validate(self, where: str):
        if self.kind not in _ENTRY_KEYS:
            raise ConfigurationError(f"{where}.kind: must be synthetic or external")
        if self.kind == "external":
            if not self.endpoint:
                raise ConfigurationError(f"{where}.endpoint: required for external agents")
            try:
                parse_endpoint(self.endpoint)
            except ValueError as exc:
                raise ConfigurationError(f"{where}.endpoint: {exc}") from None
        try:
            check_call_bounds(self.timeout, self.lookback)
        except ValueError as exc:
            raise ConfigurationError(f"{where}.{exc}") from None


@dataclass(frozen=True)
class AgentsSection:
    data: tuple[AgentEntry, ...] = ()
    research: tuple[AgentEntry, ...] = ()


@dataclass(frozen=True)
class ContestSection:
    m: int = 5
    n_data: int = 3
    n_research: int = 5
    budget: int = 16_384
    predictor: str = "gbdt"
    n_trees: int = 50
    max_depth: int = 3
    learning_rate: float = 0.1
    research_rebalance_daily: bool = False

    def validate(self, where: str):
        if self.predictor not in ("baseline", "gbdt"):
            raise ConfigurationError(
                f"{where}.predictor: must be baseline or gbdt, got {self.predictor!r}")


@dataclass(frozen=True)
class RicPanel:
    kind: str = "ar1"  # ar1 | noise
    phi: float = 0.6
    agents: int = 16
    days: int = 300

    def validate(self, where: str):
        if self.kind not in ("ar1", "noise"):
            raise ConfigurationError(f"{where}.kind: must be ar1 or noise, got {self.kind!r}")
        if not math.isfinite(self.phi):
            raise ConfigurationError(f"{where}.phi: must be a finite number, got {self.phi!r}")
        _at_least_1(self, ("agents", "days"), where)


@dataclass(frozen=True)
class RicWindows:
    m: int = 5
    n: int = 3
    M: int = 60
    N: int = 30

    def validate(self, where: str):
        _at_least_1(self, ("m", "n", "M", "N"), where)


def _at_least_1(section, names, where: str):
    for name in names:
        if getattr(section, name) < 1:
            raise ConfigurationError(f"{where}.{name}: must be >= 1, got {getattr(section, name)}")


@dataclass(frozen=True)
class ValidateRicSection:
    source: str = "panel"  # panel | ledger
    panel: RicPanel = field(default_factory=RicPanel)
    ledger: str | None = None
    windows: RicWindows = field(default_factory=RicWindows)

    def validate(self, where: str):
        if self.source not in ("panel", "ledger"):
            raise ConfigurationError(
                f"{where}.source: must be panel or ledger, got {self.source!r}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    output_dir: str = "runs/out"
    data: DataSection = field(default_factory=DataSection)
    period: PeriodSection = field(default_factory=PeriodSection)
    agents: AgentsSection = field(default_factory=AgentsSection)
    contest: ContestSection = field(default_factory=ContestSection)
    backtest: BacktestRules = field(default_factory=BacktestRules)
    validate_ric: ValidateRicSection = field(default_factory=ValidateRicSection)


def default_roster(seed: int) -> AgentsSection:
    """16 data agents (4 stronger readers) and 8 mixed-belief researchers."""
    data = []
    for i in range(DEFAULT_DATA_AGENTS):
        skill = 0.8 if i < 4 else 0.0
        data.append(AgentEntry(agent_id=f"data{i:02d}", skill=skill))
    beliefs = ["momentum", "momentum", "momentum", "reversal", "reversal", "reversal",
               "random", "random"]
    research = [
        AgentEntry(agent_id=f"res{i:02d}", belief=beliefs[i])
        for i in range(DEFAULT_RESEARCH_AGENTS)
    ]
    return AgentsSection(data=tuple(data), research=tuple(research))


def _path(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def _load(cls, raw, where: str):
    """Build section ``cls`` from its YAML mapping; a missing or null key
    takes the field's default, and a key the section lacks is an error.
    A ValueError from the section's own checks is reported at its path."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where or 'config root'}: must be a mapping")
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in raw:
        if key not in names:
            raise ConfigurationError(f"{_path(where, key)}: unknown key")
    hints = typing.get_type_hints(cls)  # resolves postponed (string) annotations
    values = {}
    for f in fields:
        path = _path(where, f.name)
        if raw.get(f.name) is not None:
            values[f.name] = _convert(hints[f.name], raw[f.name], path)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigurationError(f"{path}: required")
    try:
        section = cls(**values)
    except ValueError as exc:
        raise ConfigurationError(f"{where or 'config root'}: {exc}") from None
    if hasattr(section, "validate"):
        section.validate(where)
    return section


def _convert(tp, value, where: str):
    if isinstance(tp, types.UnionType):  # X | None: the null case never gets here
        tp = next(t for t in typing.get_args(tp) if t is not type(None))
    if dataclasses.is_dataclass(tp):
        return _load(tp, value, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigurationError(f"{where}: must be a list")
        item = typing.get_args(tp)[0]
        return tuple(_convert(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if tp is dt.date:
        return _date(value, where)
    # bool("false") is True, int(True) is 1 and int(2.7) is 2: only a YAML
    # boolean is a bool, and an int field takes no fraction
    if (tp is bool) != isinstance(value, bool) or (
            tp is int and isinstance(value, float) and not value.is_integer()):
        raise ConfigurationError(f"{where}: expected {tp.__name__}, got {value!r}")
    try:
        return tp(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{where}: expected {tp.__name__}, got {value!r}") from None


def from_dict(raw: dict) -> RunConfig:
    config = _load(RunConfig, raw, "")
    if not config.agents.data and not config.agents.research:
        config = dataclasses.replace(config, agents=default_roster(config.seed))
    return config


def to_dict(value):
    """The YAML form of a config or of any part of it."""
    if isinstance(value, AgentEntry):
        keys = _ENTRY_KEYS[value.kind]
        return {k: to_dict(getattr(value, k)) for k in keys if getattr(value, k) is not None}
    if dataclasses.is_dataclass(value):
        return {f.name: to_dict(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [to_dict(v) for v in value]
    if isinstance(value, dt.date):
        return value.isoformat()
    return value


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigurationError(f"config file is a directory: {path}") from None
    except UnicodeDecodeError:
        raise ConfigurationError(f"config file is not valid UTF-8: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config is not valid YAML: {exc}") from None
    if raw is None:
        raw = {}
    return from_dict(raw)


def build_store(config: RunConfig) -> MarketStore:
    data = config.data
    if data.kind == "csv":
        try:
            return ingest_csv(data.csv_path)
        except FileNotFoundError:
            raise ConfigurationError(f"data.csv_path: file not found: {data.csv_path}") from None
        except IsADirectoryError:
            raise ConfigurationError(f"data.csv_path: is a directory: {data.csv_path}") from None
        except UnicodeDecodeError:  # decoded a block at a time: no line is known
            raise CsvFormatError(f"{data.csv_path}: not valid UTF-8") from None
    try:
        spec = SyntheticSpec(
            n_symbols=data.n_symbols,
            n_days=data.n_days,
            seed=child_seed(config.seed, "market"),
            daily_vol=data.daily_vol,
            limit_pct=data.limit_pct,
            start=data.start,
            start_price=data.start_price,
            planted_effects=data.planted,
        )
        return generate_synthetic(spec)
    except ValueError as exc:
        raise ConfigurationError(f"data: {exc}") from exc


_AGENT_CLASSES = {  # side -> (synthetic, external)
    "data": (SyntheticDataAgent, ExternalDataAgent),
    "research": (SyntheticResearchAgent, ExternalResearchAgent),
}


def build_agents(config: RunConfig):
    rosters = {}
    for side, (synthetic, external) in _AGENT_CLASSES.items():
        agents = rosters[side] = []
        for i, entry in enumerate(getattr(config.agents, side)):
            if entry.kind == "external":
                agents.append(external(agent_id=entry.agent_id, endpoint=entry.endpoint,
                                       timeout=entry.timeout, lookback=entry.lookback))
                continue
            seed = entry.noise_seed if entry.noise_seed is not None \
                else child_seed(config.seed, "agent", entry.agent_id)
            try:
                spec = SyntheticAgentSpec(
                    agent_id=entry.agent_id, kind=side, noise_seed=seed, skill=entry.skill,
                    obs_per_day=entry.obs_per_day, belief_bias=entry.belief)
            except ValueError as exc:
                raise ConfigurationError(f"agents.{side}[{i}]: {exc}") from exc
            agents.append(synthetic(spec))
    return rosters["data"], rosters["research"]


def contest_config(config: RunConfig, store: MarketStore, **overrides) -> ContestConfig:
    period, contest = config.period, config.contest
    train_window = None
    if period.train_start is not None and period.train_end is not None:
        train_window = sum(
            1 for d in store.calendar if period.train_start <= d <= period.train_end
        )
    try:
        predictor = PredictorSpec(
            kind=contest.predictor, n_trees=contest.n_trees,
            max_depth=contest.max_depth, learning_rate=contest.learning_rate,
        )
        params = dict(
            m=contest.m,
            n_data=contest.n_data,
            n_research=contest.n_research,
            budget=contest.budget,
            predictor=predictor,
            seed=config.seed,
            research_rebalance_daily=contest.research_rebalance_daily,
            train_window_days=train_window,
        )
        params.update(overrides)
        return ContestConfig(**params)
    except ValueError as exc:
        raise ConfigurationError(f"contest: {exc}") from exc
