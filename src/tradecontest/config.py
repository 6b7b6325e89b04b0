"""Run configuration: YAML file schema, validation, and round-tripping.

One file describes a full run: data source, train/test period, agent
roster, contest parameters, and backtest rules. Everything random in a
run derives from the single root seed, so rerunning a config reproduces
outputs byte for byte and ablation variants stay paired.

The section dataclasses are the schema: each field is one YAML key,
named as in the file, with its type and default. ``from_dict`` and
``to_dict`` walk those fields, so a key is declared in exactly one place,
and each section's own checks run as it is loaded. Where the program has
a type for a section, that type is the section: ``contest`` is
``engine.ContestRules``, ``backtest`` is ``backtest.BacktestRules``, each
``data.planted`` entry is ``market.PlantedEffect``, ``data`` extends
``market.SyntheticSpec`` with the data source, and each ``agents`` entry
is the agent it names, of the type its ``kind`` key picks. The root keys
and the ``period`` and ``validate_ric`` sections are declared here.
"""

import dataclasses
import datetime as dt
import math
import sys
import types
import typing
from dataclasses import dataclass, field

import yaml

from .agents import (
    ExternalDataAgent,
    ExternalResearchAgent,
    SyntheticDataAgent,
    SyntheticResearchAgent,
)
from .backtest import BacktestRules
from .engine import ContestConfig, ContestRules
from .errors import ConfigurationError, CsvFormatError
from .market import MarketStore, SyntheticSpec, generate_synthetic, ingest_csv
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
class DataSection(SyntheticSpec):
    kind: str = "synthetic"  # synthetic | csv
    csv_path: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in ("synthetic", "csv"):
            raise ValueError(f"kind: must be synthetic or csv, got {self.kind!r}")
        if self.kind == "csv" and not self.csv_path:
            raise ValueError("csv_path: required when data.kind is csv")


@dataclass(frozen=True)
class PeriodSection:
    train_start: dt.date | None = None
    train_end: dt.date | None = None
    test_start: dt.date | None = None
    test_end: dt.date | None = None

    def __post_init__(self):
        if self.test_start is not None and self.train_end is not None:
            if self.test_start <= self.train_end:
                raise ValueError(f"train/test overlap (train_end {self.train_end} >= "
                                 f"test_start {self.test_start})")
        if self.train_start is not None and self.train_end is not None:
            if self.train_end < self.train_start:
                raise ValueError("train_end before train_start")
        if self.test_start is not None and self.test_end is not None:
            if self.test_end < self.test_start:
                raise ValueError("test_end before test_start")


DataAgent = SyntheticDataAgent | ExternalDataAgent
ResearchAgent = SyntheticResearchAgent | ExternalResearchAgent


@dataclass(frozen=True)
class AgentsSection:
    data: tuple[DataAgent, ...] = ()
    research: tuple[ResearchAgent, ...] = ()


@dataclass(frozen=True)
class RicPanel:
    kind: str = "ar1"  # ar1 | noise
    phi: float = 0.6
    agents: int = 16
    days: int = 300

    def __post_init__(self):
        if self.kind not in ("ar1", "noise"):
            raise ValueError(f"kind: must be ar1 or noise, got {self.kind!r}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi: must be a finite number, got {self.phi!r}")
        _at_least_1(self, ("agents", "days"))
        cells = sys.maxsize // 8  # NumPy caps an array's bytes at its index type
        if self.agents * self.days > cells:
            raise ValueError(f"agents * days must be at most {cells} "
                             f"(a float64 array's limit), got {self.agents} * {self.days}")


@dataclass(frozen=True)
class RicWindows:
    m: int = 5
    n: int = 3
    M: int = 60
    N: int = 30

    def __post_init__(self):
        _at_least_1(self, ("m", "n", "M", "N"))


def _at_least_1(section, names):
    for name in names:
        if getattr(section, name) < 1:
            raise ValueError(f"{name}: must be >= 1, got {getattr(section, name)}")


@dataclass(frozen=True)
class ValidateRicSection:
    source: str = "panel"  # panel | ledger
    panel: RicPanel = field(default_factory=RicPanel)
    ledger: str | None = None
    windows: RicWindows = field(default_factory=RicWindows)

    def __post_init__(self):
        if self.source not in ("panel", "ledger"):
            raise ValueError(f"source: must be panel or ledger, got {self.source!r}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    output_dir: str = "runs/out"
    data: DataSection = field(default_factory=DataSection)
    period: PeriodSection = field(default_factory=PeriodSection)
    agents: AgentsSection = field(default_factory=AgentsSection)
    contest: ContestRules = field(default_factory=ContestRules)
    backtest: BacktestRules = field(default_factory=BacktestRules)
    validate_ric: ValidateRicSection = field(default_factory=ValidateRicSection)


def default_roster(seed: int) -> AgentsSection:
    """16 data agents (4 stronger readers) and 8 mixed-belief researchers."""
    data = []
    for i in range(DEFAULT_DATA_AGENTS):
        skill = 0.8 if i < 4 else 0.0
        data.append(SyntheticDataAgent(agent_id=f"data{i:02d}", skill=skill))
    beliefs = ["momentum", "momentum", "momentum", "reversal", "reversal", "reversal",
               "random", "random"]
    research = [
        SyntheticResearchAgent(agent_id=f"res{i:02d}", belief=beliefs[i])
        for i in range(DEFAULT_RESEARCH_AGENTS)
    ]
    return AgentsSection(data=tuple(data), research=tuple(research))


def _path(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def _load(cls, raw, where: str):
    """Build section ``cls`` from its YAML mapping; a missing or null key
    takes the field's default, and a key the section lacks is an error.
    A ValueError from the section's own checks is reported at the key its
    message starts with (``timeout: ...``), or else at the section's path."""
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
        key, _, rest = str(exc).partition(": ")
        if key in names:
            raise ConfigurationError(f"{_path(where, key)}: {rest}") from None
        raise ConfigurationError(f"{where or 'config root'}: {exc}") from None
    return section


def _load_kind(members, raw, where: str):
    """The member of ``members`` that ``raw``'s ``kind`` key names (the
    first when it has none), built from the rest of ``raw``."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where}: must be a mapping")
    kind = members[0].kind if raw.get("kind") is None else raw["kind"]
    tp = next((t for t in members if t.kind == kind), None)
    if tp is None:
        raise ConfigurationError(
            f"{where}.kind: must be {' or '.join(t.kind for t in members)}")
    return _load(tp, {k: v for k, v in raw.items() if k != "kind"}, where)


def _convert(tp, value, where: str):
    if isinstance(tp, types.UnionType):  # X | None: the null case never gets here
        members = [t for t in typing.get_args(tp) if t is not type(None)]
        if len(members) > 1:  # an agents entry
            return _load_kind(members, value, where)
        tp = members[0]
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
    except (TypeError, ValueError, OverflowError):  # float(10**400) overflows
        raise ConfigurationError(f"{where}: expected {tp.__name__}, got {value!r}") from None


def from_dict(raw: dict) -> RunConfig:
    config = _load(RunConfig, raw, "")
    if not config.agents.data and not config.agents.research:
        config = dataclasses.replace(config, agents=default_roster(config.seed))
    return config


def to_dict(value):
    """The YAML form of a config or of any part of it."""
    if isinstance(value, DataAgent | ResearchAgent):  # its kind, and the keys it sets
        return {"kind": value.kind, **{k: v for k, v in dataclasses.asdict(value).items()
                                       if v is not None}}
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
        return generate_synthetic(data, child_seed(config.seed, "market"))
    except ValueError as exc:
        raise ConfigurationError(f"data: {exc}") from exc


def build_agents(config: RunConfig):
    """The roster's data and research agents, each synthetic one without a
    ``noise_seed`` given one derived from the run's seed and its id."""
    def seeded(agent):
        if getattr(agent, "noise_seed", 0) is not None:  # seeded, or external
            return agent
        return dataclasses.replace(
            agent, noise_seed=child_seed(config.seed, "agent", agent.agent_id))
    return [seeded(a) for a in config.agents.data], [seeded(a) for a in config.agents.research]


def contest_config(config: RunConfig, store: MarketStore, **overrides) -> ContestConfig:
    """The ``contest`` section plus the run's seed, training window and ablation switches."""
    period = config.period
    train_window = None
    if period.train_start is not None and period.train_end is not None:
        train_window = sum(period.train_start <= d <= period.train_end for d in store.calendar)
        if not train_window:  # a cap of 0 would slice every row
            raise ConfigurationError(f"period: train period from {period.train_start} to "
                                     f"{period.train_end} holds no trading day")
    return ContestConfig(**dataclasses.asdict(config.contest), seed=config.seed,
                         train_window_days=train_window, **overrides)
