"""Run configuration: key = value files with strict validation.

One key per line, '#' starts a comment, unknown keys are rejected, and every
range invariant is checked at parse time.  A RunConfig holds the sections the
pipeline consumes (`seir.EpidemicParams`, `rules.AmbiguityConfig`,
`plan.PlannerConfig`) next to the run's own fields; the config keys are the
fields of those sections and of the run, in that order, so each default lives
in one dataclass.  `config` sets keys, from a file or the command line, on a
base configuration: each section it touches is rebuilt and checks its keys
itself, then the run's own checks run.  The fully resolved configuration is
echoed next to any results so a run can always be reproduced.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .errors import ConfigError, DomainError
from .grid import GridSpec
from .plan import PlannerConfig
from .rules import AmbiguityConfig
from .seir import EpidemicParams
from .sim import SWEEPABLE, PerturbationSpec, sweep_params


@dataclass
class RunConfig:
    params: EpidemicParams = field(default_factory=EpidemicParams)
    Y: int = 10                # discretization level
    ambiguity: AmbiguityConfig = field(default_factory=AmbiguityConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    # simulation scenarios
    radius: float = 0.5
    perturb_direction: str = "high-infective"
    nseeds: int = 10
    p_S1_list: tuple[float, ...] = (0.6, 0.7)
    p_E1: float = 0.1
    sweep_param: str = "Q"
    sweep_values: tuple[float, ...] = (0.5, 2.0, 50.0)
    # execution
    threads: int = 1

    def perturbation(self) -> PerturbationSpec:
        return PerturbationSpec(radius=self.radius, direction=self.perturb_direction,
                                seed=self.planner.seed)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw.strip()!r} is not finite")
    return value


def _parse_list(raw: str) -> tuple[float, ...]:
    values = tuple(_parse_float(v) for v in raw.split(",") if v.strip())
    if not values:
        raise ValueError("expected at least one comma-separated value")
    return values


def _key_table() -> dict[str, tuple[str | None, str, object]]:
    """key -> (section field or None for the run's own, field, parser), in
    RunConfig field order with each section's fields in place.  Each key is
    parsed by the type of its default (type() tells bool from int)."""
    parsers = {bool: _parse_bool, int: int, float: _parse_float, str: str,
               tuple: _parse_list}
    table = {}
    for f in fields(_DEFAULT):
        value = getattr(_DEFAULT, f.name)
        entries = ([(f.name, g.name, getattr(value, g.name)) for g in fields(value)]
                   if is_dataclass(value) else [(None, f.name, value)])
        for section, name, dflt in entries:
            key = "lambda" if name == "lam" else name
            table[key] = (section, name, parsers[type(dflt)])
    return table


_DEFAULT = RunConfig()
_KEYS = _key_table()


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse key = value lines into a validated RunConfig."""
    values: dict[str, object] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', "
                              f"got {rawline.strip()!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEYS[key][2](raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}")
    return config(_DEFAULT, values, source)


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}")
    return parse_config_text(text, source=path)


def config(base: RunConfig, values: dict[str, object], source: str) -> RunConfig:
    """base with each config key in values set to its parsed value.

    Each section a key names is rebuilt, and so checks its fields; then the
    run's own checks run.  Every error is a ConfigError naming source.
    """
    own: dict[str, object] = {}
    sections: dict[str, dict[str, object]] = {}
    for key, value in values.items():
        section, name, _ = _KEYS[key]
        (sections.setdefault(section, {}) if section else own)[name] = value
    try:
        for section, kw in sections.items():
            own[section] = replace(getattr(base, section), **kw)
        cfg = replace(base, **own)
        cfg.perturbation()
        GridSpec(cfg.Y)
    except DomainError as exc:
        raise ConfigError(f"{source}: {exc}")
    if cfg.nseeds < 1:
        raise ConfigError(f"{source}: nseeds must be >= 1")
    if cfg.threads < 1:
        raise ConfigError(f"{source}: threads must be >= 1")
    if not 0.0 <= cfg.p_E1 <= 1.0:
        raise ConfigError(f"{source}: p_E1 must be in [0, 1]")
    for v in cfg.p_S1_list:
        if not 0.0 <= v <= 1.0 or v + cfg.p_E1 > 1.0 + 1e-12:
            raise ConfigError(f"{source}: initial p_S1 {v} out of range")
    if cfg.sweep_param not in SWEEPABLE:
        raise ConfigError(f"{source}: sweep_param must be one of {SWEEPABLE}")
    for value in cfg.sweep_values:
        try:
            sweep_params(cfg.params, cfg.sweep_param, value)
        except DomainError as exc:
            raise ConfigError(f"{source}: sweep_values entry {cfg.sweep_param} = "
                              f"{value!r}: {exc}")
    return cfg


def resolved_text(cfg: RunConfig) -> str:
    """Every key with its resolved value, one per line, stable order.

    Floats are written with repr, so parse_config_text reads back the same
    configuration."""
    lines = []
    for key, (section, name, _) in _KEYS.items():
        val = getattr(getattr(cfg, section) if section else cfg, name)
        if isinstance(val, tuple):
            val = ",".join(repr(float(v)) for v in val)
        elif isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(float(val))
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(resolved_text(cfg).encode()).hexdigest()[:16]
