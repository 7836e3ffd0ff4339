"""Training configuration."""

from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, dataclass, fields
from typing import Optional

from .errors import ConfigError

ABLATION_MODES = ("none", "static", "dynamic")


@dataclass
class TrainConfig:
    """Everything one training run depends on.

    Defaults reproduce the desk-scale synthetic protocol: full-image batches,
    AdamW, 200 epochs. ``ablation_mode`` selects the graph stage: "dynamic"
    (content-adaptive, the full method), "static" (fixed grid weights), or
    "none" (graph bypassed entirely; equivalent to beta = 0).
    """

    lr: float = 1e-3
    weight_decay: float = 1e-5
    epochs: int = 200
    beta: float = 0.3
    k_steps: int = 3
    radius: int = 1
    patch_size: int = 4
    channels: int = 32       # compressed band count fed to the tokenizer
    token_dim: int = 64      # spectral and spatial token width (kept equal)
    fused_channels: int = 64  # fused feature channels entering the graph
    seed: int = 0
    ablation_mode: str = "dynamic"
    n_endmembers: Optional[int] = None  # None: take from the data's ground truth
    checkpoint_path: Optional[str] = None
    data_path: Optional[str] = None

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, _FIELD_TYPES[f.name]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(
                f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if not 0 <= self.beta < math.inf:
            raise ConfigError(f"beta must be >= 0 and finite, got {self.beta}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.k_steps < 1:
            raise ConfigError(f"k_steps must be at least 1, got {self.k_steps}")
        if self.radius < 1:
            raise ConfigError(f"radius must be at least 1, got {self.radius}")
        if self.patch_size < 1:
            raise ConfigError(f"patch_size must be positive, got {self.patch_size}")
        if min(self.channels, self.token_dim, self.fused_channels) < 1:
            raise ConfigError("channel widths must be positive")
        if self.ablation_mode not in ABLATION_MODES:
            raise ConfigError(
                f"ablation_mode {self.ablation_mode!r} not in {ABLATION_MODES}")
        if self.n_endmembers is not None and self.n_endmembers < 2:
            raise ConfigError(
                f"n_endmembers must be at least 2, got {self.n_endmembers}")
        return self

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        raw = json.loads(text)
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**raw).validate()


_FIELD_TYPES = typing.get_type_hints(TrainConfig)


def _has_type(value, hint) -> bool:
    """Type check of one field: a bool is no int here, and an int is a
    float."""
    if typing.get_origin(hint) is typing.Union:  # Optional[...]
        return value is None or _has_type(value, typing.get_args(hint)[0])
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)
