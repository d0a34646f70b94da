"""Run configuration: dotted key=value text, strict about what it accepts.

The format is deliberately small: one ``section.key = value`` per line,
``#`` comments, blank lines ignored. Unknown keys are rejected with the
line number, as are values a run could not use (non-positive
tolerances, growth exponent at or below 2, radii out of order). The
canonical formatter round-trips through the parser, which is what makes
manifests self-describing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np

from .errors import ConfigError, InvalidSpecError
from .functional import (
    NonlinearitySpec,
    ProblemSpec,
    power_nonlinearity,
    zero_nonlinearity,
)
from .grid import DomainSpec
from .solver import SolverConfig

__all__ = [
    "DomainBlock",
    "ProblemBlock",
    "FrameBlock",
    "OutputBlock",
    "RunConfig",
    "parse_config",
    "load_config",
    "format_config",
    "to_problem_spec",
]

PRESETS = ("power", "zero")


@dataclass
class DomainBlock:
    dimension: int = 1
    extent_x: float = 1.0
    extent_y: float = 1.0
    nx: int = 31
    ny: int = 31


@dataclass
class ProblemBlock:
    preset: str = "power"
    p: float = 4.0
    mu: float = 4.0
    scale: float = 1.0
    lam: float = 0.0
    delta: float = 0.0


@dataclass
class FrameBlock:
    r: Union[str, float] = "auto"
    rho: Union[str, float] = "auto"
    d_y: int = 1
    seed: int = 12345
    sphere_samples: int = 64
    boundary_samples: int = 128
    interior_samples: int = 64


@dataclass
class OutputBlock:
    dir: str = "out"
    heatmaps: bool = True
    svg: bool = False


@dataclass
class RunConfig:
    domain: DomainBlock = field(default_factory=DomainBlock)
    problem: ProblemBlock = field(default_factory=ProblemBlock)
    frame: FrameBlock = field(default_factory=FrameBlock)
    solver: SolverConfig = field(default_factory=SolverConfig)
    output: OutputBlock = field(default_factory=OutputBlock)


_BLOCKS = {
    "domain": DomainBlock,
    "problem": ProblemBlock,
    "frame": FrameBlock,
    "solver": SolverConfig,
    "output": OutputBlock,
}

# problem.lambda on disk maps to ProblemBlock.lam (keyword clash in Python).
_KEY_ALIASES = {("problem", "lambda"): "lam"}
_FIELD_ALIASES = {("problem", "lam"): "lambda"}


def _parse_bool(raw: str, where: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {raw!r}")


def _convert(raw: str, target, where: str):
    if target is bool:
        return _parse_bool(raw, where)
    if target is int:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: expected an integer, got {raw!r}") from exc
    if target is float:
        try:
            val = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: expected a number, got {raw!r}") from exc
        if not np.isfinite(val):
            raise ConfigError(f"{where}: value must be finite, got {raw!r}")
        return val
    return raw


def _assign(cfg: RunConfig, section: str, key: str, raw: str, lineno: int) -> None:
    where = f"line {lineno}: {section}.{key}"
    if section not in _BLOCKS:
        raise ConfigError(f"{where}: unknown section {section!r}")
    attr = _KEY_ALIASES.get((section, key), key)
    block = getattr(cfg, section)
    spec = {f.name: f for f in fields(block)}
    if attr not in spec:
        raise ConfigError(f"{where}: unknown key")
    current = getattr(block, attr)
    # frame.r / frame.rho accept "auto" or a positive number.
    if section == "frame" and attr in ("r", "rho"):
        if raw.lower() == "auto":
            setattr(block, attr, "auto")
        else:
            setattr(block, attr, _convert(raw, float, where))
        return
    target = type(current) if not isinstance(current, str) else str
    setattr(block, attr, _convert(raw, target, where))


def _validate(cfg: RunConfig) -> RunConfig:
    d = cfg.domain
    if d.dimension not in (1, 2):
        raise ConfigError(f"domain.dimension must be 1 or 2, got {d.dimension}")
    for label, val in (("domain.nx", d.nx), ("domain.ny", d.ny)):
        if val < 1:
            raise ConfigError(f"{label} must be at least 1, got {val}")
    for label, val in (("domain.extent_x", d.extent_x), ("domain.extent_y", d.extent_y)):
        if not val > 0:
            raise ConfigError(f"{label} must be positive, got {val}")

    p = cfg.problem
    if p.preset not in PRESETS:
        raise ConfigError(f"problem.preset must be one of {PRESETS}, got {p.preset!r}")
    if not p.p > 2.0:
        raise ConfigError(f"problem.p requires p > 2, got {p.p:g}")
    if not p.mu > 2.0:
        raise ConfigError(f"problem.mu requires mu > 2, got {p.mu:g}")
    if not p.scale > 0:
        raise ConfigError(f"problem.scale must be positive, got {p.scale:g}")

    f = cfg.frame
    for label, val in (("frame.r", f.r), ("frame.rho", f.rho)):
        if isinstance(val, float) and not val > 0:
            raise ConfigError(f"{label} must be positive or 'auto', got {val:g}")
    if isinstance(f.r, float) and isinstance(f.rho, float) and not f.r < f.rho:
        raise ConfigError(f"frame radii must satisfy r < rho, got r={f.r:g}, rho={f.rho:g}")
    if (f.r == "auto") != (f.rho == "auto"):
        raise ConfigError("frame.r and frame.rho must both be 'auto' or both numeric")
    if f.d_y < 1:
        raise ConfigError(f"frame.d_y must be at least 1, got {f.d_y}")
    nodes = d.nx if d.dimension == 1 else d.nx * d.ny
    if f.d_y > nodes:
        raise ConfigError(f"frame.d_y must not exceed the grid's node count {nodes}, got {f.d_y}")
    for label, val in (
        ("frame.sphere_samples", f.sphere_samples),
        ("frame.boundary_samples", f.boundary_samples),
        ("frame.interior_samples", f.interior_samples),
    ):
        if val < 2:
            raise ConfigError(f"{label} must be at least 2, got {val}")

    try:
        dataclasses.replace(cfg.solver)  # runs SolverConfig's own validation
    except InvalidSpecError as exc:
        raise ConfigError(f"solver.{exc}") from exc
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse dotted key=value text into a validated :class:`RunConfig`."""
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        lhs, raw = body.split("=", 1)
        lhs = lhs.strip()
        raw = raw.strip()
        if "." not in lhs:
            raise ConfigError(f"line {lineno}: key {lhs!r} is missing its section")
        if not raw:
            raise ConfigError(f"line {lineno}: {lhs} has no value")
        section, key = lhs.split(".", 1)
        _assign(cfg, section.strip(), key.strip(), raw, lineno)
    return _validate(cfg)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _format_value(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return repr(val)  # shortest round-tripping form
    return str(val)


def format_config(cfg: RunConfig) -> str:
    """Canonical text form; parses back to an equal configuration."""
    lines = []
    for section, block_type in _BLOCKS.items():
        block = getattr(cfg, section)
        for f in fields(block_type):
            key = _FIELD_ALIASES.get((section, f.name), f.name)
            lines.append(f"{section}.{key} = {_format_value(getattr(block, f.name))}")
    return "\n".join(lines) + "\n"


def _nonlinearity_from(block: ProblemBlock) -> NonlinearitySpec:
    if block.preset == "zero":
        return zero_nonlinearity()
    return power_nonlinearity(p=block.p, scale=block.scale, mu=block.mu)


def to_problem_spec(cfg: RunConfig) -> ProblemSpec:
    """Materialize the continuous problem a configuration describes."""
    d = cfg.domain
    if d.dimension == 1:
        domain = DomainSpec.interval(d.nx, d.extent_x)
    else:
        domain = DomainSpec.rectangle(d.nx, d.ny, d.extent_x, d.extent_y)
    return ProblemSpec(
        domain=domain,
        nonlinearity=_nonlinearity_from(cfg.problem),
        lam=cfg.problem.lam,
        delta=cfg.problem.delta,
    )
