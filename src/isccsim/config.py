"""Run configuration: one versioned schema shared by every CLI command.

A config can come from a JSON file, from command-line flags, or both
(flags win). Unknown fields fail loudly with the offending field named,
so typos never silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields

from .gain import SensingParams
from .network import ChannelParams, ScenarioConfig
from .pool import PoolConfig, PoolError
from .sac import SacConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


def _check_keys(section: str, given: dict, allowed: type) -> None:
    valid = {f.name for f in fields(allowed)}
    for key in given:
        if key not in valid:
            raise ConfigError(
                f"{section}.{key}",
                f"unknown field; valid: {', '.join(sorted(valid))}",
            )


def _check_ints(given: dict, schema: type, section: str | None = None) -> None:
    """An `int` field holds an int: a float, NaN or bool there is an input error."""
    for f in fields(schema):
        if f.type in (int, "int") and f.name in given and type(given[f.name]) is not int:
            message = f"must be an integer, got {given[f.name]!r}"
            if section is None:
                raise ConfigError(f.name, message)
            raise ConfigError(section, f"{f.name} {message}")


@dataclass
class RunConfig:
    schema_version: int = SCHEMA_VERSION
    scenario: dict = field(default_factory=dict)
    pool: dict = field(default_factory=dict)
    sensing: dict = field(default_factory=dict)
    sac: dict = field(default_factory=dict)
    mode: str = "zeros"
    policy: str = "greedy"
    rounds: int = 5
    seeds: tuple = (0,)
    slots: int = 9
    reduced_slots: int = 5  # the reduced arm of `robustness`
    episode_seed_stride: int = 1
    out: str = "runs"
    params: str | None = None
    negative_control: bool = False

    def validate(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                "schema_version",
                f"expected {SCHEMA_VERSION}, got {self.schema_version}",
            )
        if not self.seeds:
            raise ConfigError("seeds", "must list at least one seed")
        if any(type(s) is not int for s in self.seeds):
            raise ConfigError("seeds", "seeds must be integers")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds", f"seeds must be nonnegative, got {list(self.seeds)}")
        _check_ints(vars(self), RunConfig)
        if self.rounds < 1:
            raise ConfigError("rounds", "must be at least 1")
        for name in ("slots", "reduced_slots"):
            if getattr(self, name) < 2:
                raise ConfigError(name, "frame needs at least 2 slots")
        if self.mode not in ("zeros", "serial"):
            raise ConfigError("mode", "must be 'zeros' or 'serial'")
        if self.episode_seed_stride < 0:
            raise ConfigError("episode_seed_stride", "must be nonnegative")
        for section, schema in (("scenario", ScenarioConfig), ("pool", PoolConfig),
                                ("sensing", SensingParams), ("sac", SacConfig)):
            if not isinstance(getattr(self, section), dict):
                raise ConfigError(section, "must be a JSON object")
            _check_keys(section, getattr(self, section), schema)
            _check_ints(getattr(self, section), schema, section)
        if isinstance(self.scenario.get("channel"), dict):
            _check_keys("scenario.channel", self.scenario["channel"], ChannelParams)
        if not isinstance(self.policy, str):
            raise ConfigError("policy", f"must be a string, got {self.policy!r}")
        if not isinstance(self.out, str) or not self.out:
            raise ConfigError("out", f"must be a nonempty path, got {self.out!r}")
        if self.params is not None and not isinstance(self.params, str):
            raise ConfigError("params", f"must be a file path, got {self.params!r}")
        # JSON parses NaN and Infinity, but no field takes them, and the
        # config is echoed into summary.json, which is strict JSON.
        for name, value in vars(self).items():
            try:
                json.dumps(value, allow_nan=False)
            except ValueError:
                raise ConfigError(name, f"must hold no NaN or infinity, got {value!r}") from None
        if "num_slots" in self.pool and self.pool["num_slots"] != self.slots:
            raise ConfigError("pool.num_slots", "conflicts with slots; set slots only")
        # Each section's own checks, so a bad value is an input error here
        # and never surfaces later as a fault of the program.
        for section, build in (
            ("scenario", self.scenario_config),
            ("pool", self.pool_config),
            ("sensing", self.sensing_params),
            ("sac", lambda: self.sac_config().validate()),
        ):
            try:
                build()
            except (TypeError, ValueError, PoolError) as err:
                raise ConfigError(section, str(err)) from err

    # -- section builders ---------------------------------------------------

    def scenario_config(self) -> ScenarioConfig:
        scenario = dict(self.scenario)
        if "channel" in scenario:
            scenario["channel"] = ChannelParams(**scenario["channel"])
        return ScenarioConfig(**scenario)

    def pool_config(self) -> PoolConfig:
        overrides = {k: v for k, v in self.pool.items() if k != "num_slots"}
        return PoolConfig(num_slots=self.slots, **overrides)

    def sensing_params(self) -> SensingParams:
        return SensingParams(**self.sensing)

    def sac_config(self) -> SacConfig:
        merged = dict(self.sac)
        merged.setdefault("seed", self.seeds[0])
        return SacConfig(**merged)

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["seeds"] = list(self.seeds)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        valid = {f.name for f in fields(cls)}
        for key in data:
            if key not in valid:
                raise ConfigError(key, f"unknown field; valid: {', '.join(sorted(valid))}")
        merged = dict(data)
        if "seeds" in merged:
            merged["seeds"] = tuple(merged["seeds"])
        cfg = cls(**merged)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError("config", f"file not found: {path}")
        except json.JSONDecodeError as err:
            raise ConfigError("config", f"{path} line {err.lineno}: {err.msg}")
        if not isinstance(data, dict):
            raise ConfigError("config", "top level must be a JSON object")
        return cls.from_dict(data)


def parse_seed_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ConfigError("seeds", f"not a comma-separated integer list: {text!r}")
