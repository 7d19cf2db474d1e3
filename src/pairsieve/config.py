"""Run configuration dataclasses and their JSON round trip."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .curation import StopRule
from .data import GenConfig
from .errors import ConfigError
from .store import atomic_open


@dataclass
class EncoderConfig:
    hidden: int = 32
    embed_dim: int = 16

    def __post_init__(self):
        if min(self.hidden, self.embed_dim) <= 0:
            raise ConfigError("encoder dims must be positive")


@dataclass
class TeacherConfig:
    """Clean pretraining that stands in for an off-the-shelf encoder pair."""

    n_pairs: int = 2000
    steps: int = 600
    batch_size: int = 128
    queue_capacity: int = 256

    def __post_init__(self):
        if min(self.n_pairs, self.steps, self.batch_size, self.queue_capacity) <= 0:
            raise ConfigError("teacher settings must be positive")


@dataclass
class DistillConfig:
    corpus_size: int = 4096
    held_out: int = 512
    steps: int = 2000
    batch_size: int = 256
    base_lr: float = 0.05
    target_mse: float = 0.05

    def __post_init__(self):
        if min(self.corpus_size, self.held_out, self.steps, self.batch_size) <= 0:
            raise ConfigError("distillation settings must be positive")
        if not self.base_lr > 0:
            raise ConfigError(f"distill base_lr must be positive, got {self.base_lr}")


@dataclass
class TrainConfig:
    """Main pretraining loop settings."""

    tau: float = 0.07
    alpha: float = 0.9
    keep_fraction: float = 0.9
    queue_capacity: int = 2048
    batch_pairs: int = 180
    batch_text: int = 40  # masked-token rows per step while filtering; 0 turns the task off
    base_lr: float = 5e-3
    weight_decay: float = 1e-4
    warmup_frac: float = 0.05
    epochs: int = 14
    p_mask: float = 0.15
    p_replace: float = 0.20
    step_budget: int | None = None  # when set, stop after exactly this many steps
    filter_epochs_max: int | None = None  # cap on filtering epochs, None = stop rule only

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigError("tau must be positive")
        if not 0 <= self.alpha < 1:
            raise ConfigError("alpha must be in [0, 1)")
        if not 0 < self.keep_fraction <= 1:
            raise ConfigError("keep_fraction must be in (0, 1]")
        if min(self.queue_capacity, self.batch_pairs, self.epochs) <= 0:
            raise ConfigError("queue, batch and epoch settings must be positive")
        if self.batch_text < 0:
            raise ConfigError("batch_text must be >= 0")
        if not self.base_lr > 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
        if not self.weight_decay >= 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0 <= self.warmup_frac <= 1:
            raise ConfigError(f"warmup_frac must be in [0, 1], got {self.warmup_frac}")
        if not 0 < self.p_mask < 1:
            raise ConfigError(f"p_mask must be in (0, 1), got {self.p_mask}")
        if not 0 <= self.p_replace < 1:
            raise ConfigError(f"p_replace must be in [0, 1), got {self.p_replace}")
        if self.step_budget is not None and self.step_budget < 1:
            raise ConfigError(f"step_budget must be >= 1 or null, got {self.step_budget}")
        if self.filter_epochs_max is not None and self.filter_epochs_max < 0:
            raise ConfigError(f"filter_epochs_max must be >= 0 or null, got {self.filter_epochs_max}")


@dataclass
class RunConfig:
    """Everything one pretraining run needs, serialized verbatim for provenance."""

    data: GenConfig = field(default_factory=lambda: GenConfig(n_pairs=10000))
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    teacher: TeacherConfig = field(default_factory=TeacherConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    stop: StopRule = field(default_factory=StopRule)
    filtering_on: bool = True  # score/rank/prune loop
    shadow_refresh_on: bool = True  # score with the pair at each epoch boundary, else the set-up student
    n_val: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.n_val < 0:
            raise ConfigError("n_val must be >= 0")

    def with_seed(self, seed: int) -> "RunConfig":
        """Copy of this config rebased onto another master seed."""
        cfg = from_dict(to_dict(self))
        cfg.seed = seed
        cfg.data.seed = seed
        cfg.data.world_seed = seed
        return cfg

    def run_id(self) -> str:
        digest = hashlib.sha256(to_json(self).encode()).hexdigest()[:12]
        return f"run-{digest}"


# Field annotations of RunConfig and of each section, evaluated once: get_type_hints takes about 0.1 ms a class.
_HINTS = {c: typing.get_type_hints(c) for c in (RunConfig, *typing.get_type_hints(RunConfig).values()) if dataclasses.is_dataclass(c)}


def to_dict(cfg: object) -> dict:
    """Nested dict of a config dataclass: a RunConfig, one section, or a harness.StageInputs."""
    return dataclasses.asdict(cfg)


def _leaf_types(annotation) -> tuple:
    """The Python types a config leaf holds: the members of its annotation (``int | None`` -> int, None)."""
    return typing.get_args(annotation) or (annotation,)


def _check_leaf(value, annotation, where: str) -> None:
    """A bool only in a bool field, an int in an int or float field, a float in a float field, None where admitted."""
    kinds = _leaf_types(annotation)
    if not (type(value) in kinds or (type(value) is int and float in kinds)):
        raise ConfigError(f"{where}: expected {' or '.join(k.__name__ for k in kinds)}, got {value!r}")


def _construct(cls, payload, where: str):
    """Build one config dataclass from the object at ``where``; a bad key or value is a ConfigError."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object, got {type(payload).__name__}")
    hints = _HINTS[cls]
    kwargs = {}
    for key, value in payload.items():
        dotted = f"{where}.{key}" if where else key
        if key not in hints:
            raise ConfigError(f"unknown config field {dotted!r}")
        if dataclasses.is_dataclass(hints[key]):
            value = _construct(hints[key], value, dotted)
        else:
            _check_leaf(value, hints[key], dotted)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as e:
        raise ConfigError(f"{where or 'config'}: {e}") from e


def from_dict(payload: dict) -> RunConfig:
    return _construct(RunConfig, payload, "")


def to_json(cfg: object) -> str:
    """Canonical JSON of a config dataclass (see ``to_dict``)."""
    return json.dumps(to_dict(cfg), indent=2, sort_keys=True)


def load_config(path: str | Path) -> RunConfig:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config ({e.strerror})") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from e
    return from_dict(payload)


def save_config(path: str | Path, cfg: RunConfig) -> None:
    with atomic_open(path, "w") as f:
        f.write(to_json(cfg) + "\n")


def apply_override(cfg: RunConfig, dotted: str, raw: str) -> RunConfig:
    """Copy of ``cfg`` with one field set from a "section.field=value" CLI override, parsed by its annotation."""
    payload = to_dict(cfg)
    *sections, leaf = dotted.split(".")
    target, owner = payload, RunConfig
    for name in sections:
        if not isinstance(target.get(name), dict):
            raise ConfigError(f"unknown config section {name!r}")
        target, owner = target[name], _HINTS[owner][name]
    if leaf not in target or isinstance(target[leaf], dict):
        raise ConfigError(f"unknown config field {dotted!r}")
    kinds = _leaf_types(_HINTS[owner][leaf])
    value: object
    if raw in ("null", "none", "None"):
        if type(None) not in kinds:
            raise ConfigError(f"{dotted}: cannot be null")
        value = None
    elif bool in kinds:
        if raw.lower() not in ("true", "false", "1", "0"):
            raise ConfigError(f"{dotted}: expected a boolean, got {raw!r}")
        value = raw.lower() in ("true", "1")
    else:
        parse = int if int in kinds else float
        try:
            value = parse(raw)
        except ValueError as e:
            raise ConfigError(f"{dotted}: expected {parse.__name__}, got {raw!r}") from e
    target[leaf] = value
    # Rebuilding the dataclass tree re-runs validation.
    return from_dict(payload)


def noise_removal_config(seed: int, n_pairs: int = 10000) -> RunConfig:
    """Noise-removal experiment: 11 filtering epochs, then one on the frozen subset."""
    cfg = RunConfig(data=GenConfig(n_pairs=n_pairs, seed=seed), seed=seed)
    cfg.n_val = 500
    cfg.stop.enabled = False
    cfg.train.filter_epochs_max = 11
    cfg.train.epochs = 12
    return cfg


def comparison_config(seed: int, n_pairs: int = 2500, n_val: int = 500) -> RunConfig:
    """Desk-scale base for comparing arms: masked-token task and stop rule off."""
    cfg = RunConfig(data=GenConfig(n_pairs=n_pairs, seed=seed), seed=seed)
    cfg.train.batch_text = 0
    cfg.stop.enabled = False
    cfg.n_val = n_val
    cfg.train.base_lr = 2e-2
    return cfg
