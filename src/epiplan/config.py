"""Run configuration: key = value files with strict validation.

One key per line, '#' starts a comment, unknown keys are rejected, and every
range invariant is checked at parse time.  Missing keys take the documented
defaults, and the fully resolved configuration is echoed next to any results
so a run can always be reproduced.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .errors import ConfigError, DomainError
from .grid import GridSpec
from .plan import PlannerConfig
from .rules import AmbiguityConfig
from .seir import EpidemicParams
from .sim import SWEEPABLE, PerturbationSpec, sweep_params


@dataclass
class RunConfig:
    # epidemic model
    N: int = 1000
    mu: float = 10.0
    beta: float = 0.025
    alpha0: float = 0.9
    l_C: float = 0.5
    l_D: float = 1.0 / 3.0
    Q: float = 2.0
    k_R: float = 500.0
    W: float = 1000.0
    L: int = 5
    M: int = 5
    lam: float = 0.95          # config key: lambda
    T: int = 12
    # discretization and ambiguity
    Y: int = 10
    delta: float = 0.05
    k: float = 1000.0
    # planner
    backend: str = "drmdp-enumerate"
    niter: int = 50
    seed: int = 0
    inner_method: str = "parametric"
    early_stop: bool = True
    robust_budget: float = 0.5
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

    def params(self) -> EpidemicParams:
        return EpidemicParams(N=self.N, mu=self.mu, beta=self.beta,
                              alpha0=self.alpha0, l_C=self.l_C, l_D=self.l_D,
                              Q=self.Q, k_R=self.k_R, W=self.W, L=self.L,
                              M=self.M, lam=self.lam, T=self.T)

    def ambiguity(self) -> AmbiguityConfig:
        return AmbiguityConfig(delta=self.delta, k=self.k)

    def planner_kwargs(self) -> dict:
        return dict(backend=self.backend, niter=self.niter, seed=self.seed,
                    inner_method=self.inner_method, early_stop=self.early_stop,
                    robust_budget=self.robust_budget)

    def perturbation(self) -> PerturbationSpec:
        return PerturbationSpec(radius=self.radius, direction=self.perturb_direction,
                                seed=self.seed)


_KEY_TO_FIELD = {"lambda": "lam"}
_FIELD_TO_KEY = {"lam": "lambda"}


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


# Each key is parsed by the type of its default (type() tells bool from int).
_PARSERS = {f.name: {bool: _parse_bool, int: int, float: _parse_float, str: str,
                     tuple: _parse_list}[type(f.default)] for f in fields(RunConfig)}


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
        raw = raw.strip()
        name = _KEY_TO_FIELD.get(key, key)
        if name not in _PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if name in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[name] = _PARSERS[name](raw)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}")

    cfg = RunConfig(**values)
    _validate(cfg, source)
    return cfg


def parse_config(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), source=path)


def _validate(cfg: RunConfig, source: str) -> None:
    try:
        params = cfg.params()
        cfg.ambiguity()
        PlannerConfig(**cfg.planner_kwargs())
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
            sweep_params(params, cfg.sweep_param, value)
        except DomainError as exc:
            raise ConfigError(f"{source}: sweep_values entry {cfg.sweep_param} = "
                              f"{value!r}: {exc}")


def resolved_text(cfg: RunConfig) -> str:
    """Every key with its resolved value, one per line, stable order.

    Floats are written with repr, so parse_config_text reads back the same
    configuration."""
    lines = []
    for f in fields(RunConfig):
        key = _FIELD_TO_KEY.get(f.name, f.name)
        val = getattr(cfg, f.name)
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
