"""Run configuration: nested dataclasses, JSON loading, dotted overrides.

Unknown keys are rejected on load so typos fail fast, every value is
checked against its field's type before any range check, and the full
config is echoed into every checkpoint and report for provenance.

Keys that once selected a behaviour nothing used are listed in
:data:`RETIRED_KEYS` with the value the code kept. A saved config that
holds the kept value loads and the key is dropped; any other value is a
:class:`ConfigError` naming the key.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .lifting import LIFT_MODES
from .losses import LossWeights


@dataclass
class ModelConfig:
    n_points: int = 2048
    d: int = 512
    d_h: int = 2048
    seq_len: int = 32
    cont_width: int = 256
    stage_points: list[int] = field(default_factory=list)  # empty -> n/4, n/16, n/64
    radii: list[float] = field(default_factory=lambda: [0.1, 0.2, 0.4])
    k_max: list[int] = field(default_factory=lambda: [32, 32, 32])
    n_affordances: int = 2

    def resolved_stage_points(self) -> list:
        if self.stage_points:
            return list(self.stage_points)
        return [self.n_points // 4, self.n_points // 16, self.n_points // 64]


@dataclass
class FusionConfig:
    stage1: bool = True
    stage2: bool = True


@dataclass
class LiftingConfig:
    mode: str = "multi"


@dataclass
class OptimConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    epochs: int = 30
    batch_size: int = 8
    grad_accum: int = 1


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    lifting: LiftingConfig = field(default_factory=LiftingConfig)
    losses: LossWeights = field(default_factory=LossWeights)
    optimizer: OptimConfig = field(default_factory=OptimConfig)
    seed: int = 0
    checkpoint_every: int = 0  # optimizer steps between checkpoints; 0 = final only

    def validate(self):
        for name, kind in typing.get_type_hints(RunConfig).items():
            value = getattr(self, name)
            if dataclasses.is_dataclass(kind):
                for key, key_kind in typing.get_type_hints(kind).items():
                    _check_type(f"{name}.{key}", getattr(value, key), key_kind)
            else:
                _check_type(name, value, kind)
        m = self.model
        if m.d < 2:
            raise ConfigError("model.d must be at least 2")
        stages = m.resolved_stage_points()
        if len(stages) != 3 or any(a <= b for a, b in zip(stages, stages[1:])):
            raise ConfigError(f"stage points must be 3 strictly decreasing: {stages}")
        if stages[0] > m.n_points:
            raise ConfigError(
                f"first stage ({stages[0]}) exceeds n_points ({m.n_points})")
        if m.seq_len < 2:
            raise ConfigError("model.seq_len must be at least 2")
        if m.cont_width < 1:
            raise ConfigError("model.cont_width must be at least 1")
        if m.n_affordances < 2:
            raise ConfigError("model.n_affordances must be at least 2")
        if self.lifting.mode not in LIFT_MODES:
            raise ConfigError(f"lifting.mode must be one of {LIFT_MODES}")
        o = self.optimizer
        if o.lr <= 0:
            raise ConfigError("optimizer.lr must be positive")
        # beta = 1 or eps = 0 makes the first AdamW step divide zero by zero
        if not (0 <= o.beta1 < 1 and 0 <= o.beta2 < 1):
            raise ConfigError("optimizer.beta1 and optimizer.beta2 must lie in [0, 1)")
        if o.eps <= 0:
            raise ConfigError("optimizer.eps must be positive")
        if o.weight_decay < 0:
            raise ConfigError("optimizer.weight_decay must be >= 0")
        if min(o.epochs, o.batch_size, o.grad_accum) < 1:
            raise ConfigError("epochs, batch_size, and grad_accum must be >= 1")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _check_type(path: str, value, kind):
    """ConfigError unless ``value`` is a ``kind``; a bool is no int, an int is a float."""
    expected = typing.get_origin(kind) or kind
    accepted = (int, float) if expected is float else expected
    ok = isinstance(value, accepted) and (expected is bool or not isinstance(value, bool))
    if ok and expected is float:
        ok = math.isfinite(value)
    if not ok:
        raise ConfigError(f"{path} must be a {expected.__name__}, got {value!r}")
    for i, item in enumerate(value if expected is list else ()):
        _check_type(f"{path}[{i}]", item, typing.get_args(kind)[0])


# value the code kept for each retired key
RETIRED_KEYS = {
    "model.include_bottleneck_scale": True,
    "fusion.n_heads": 1,
    "fusion.residual": False,
    "lifting.share_weights": False,
    "lifting.coarse_to_fine": True,
    "optimizer.schedule": "linear",
}


def drop_retired(payload: dict) -> dict:
    """Copy of a saved config without its retired keys, each at its kept value."""
    payload = {k: dict(v) if isinstance(v, dict) else v for k, v in payload.items()}
    for dotted, kept in RETIRED_KEYS.items():
        section, key = dotted.split(".")
        node = payload.get(section)
        if not isinstance(node, dict) or key not in node:
            continue
        value = node.pop(key)
        if type(value) is not type(kept) or value != kept:
            raise ConfigError(
                f"{dotted}={json.dumps(value)} is no longer supported; this key "
                f"was retired and only {json.dumps(kept)} is accepted")
    return payload


_SECTIONS = {
    "model": ModelConfig,
    "fusion": FusionConfig,
    "lifting": LiftingConfig,
    "losses": LossWeights,
    "optimizer": OptimConfig,
}


def _build_section(cls, payload: dict, path: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"unknown config key(s) under {path}: {sorted(unknown)}")
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad values under {path}: {exc}") from exc


def config_from_dict(payload: dict) -> RunConfig:
    if not isinstance(payload, dict):
        raise ConfigError("a config must be a JSON object")
    payload = drop_retired(payload)
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = payload.pop(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        kwargs[name] = _build_section(cls, section, name)
    scalars = {"seed", "checkpoint_every"}
    unknown = set(payload) - scalars
    if unknown:
        raise ConfigError(f"unknown top-level config key(s): {sorted(unknown)}")
    for key in scalars & set(payload):
        kwargs[key] = payload[key]
    return RunConfig(**kwargs).validate()


def load_config(path) -> RunConfig:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(payload)


def apply_overrides(config: RunConfig, overrides) -> RunConfig:
    """Apply 'section.key=value' strings; values parse as JSON when possible."""
    payload = config.to_dict()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = payload
        parts = dotted.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config path {dotted!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key {dotted!r}")
        node[parts[-1]] = value
    return config_from_dict(payload)
