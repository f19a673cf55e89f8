"""Run configuration: a flat key = value text file with validated fields.

Unknown and repeated keys are rejected outright so a typo cannot silently
fall back to a default or override an earlier line.  All randomness in a run
flows from the single `seed` through named sub-seeds, one per consumer
(generator, init, sampling), so changing the seed changes everything and
fixing it reproduces every artifact byte for byte.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

from .autodiff import ACTIVATIONS

DEFAULT_CANDIDATES = (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 2, 4, 8, 16, 32, 64, 128)
# the RunConfig fields that fix the architecture a checkpoint must agree on
ARCH_KEYS = ("candidates", "bands", "w_d", "degree_budget", "aligned_dim",
             "path_min", "path_max", "activation", "mlp_layers")


def _require_finite(obj, key_prefix: str = "") -> None:
    """Every float field of obj is finite; NaN would pass the range checks
    below quietly, since it fails every comparison.  The error names the
    config key."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key_prefix}{f.name} must be finite, got {value}")


@dataclass
class SyntheticSpec:
    sizes: tuple[int, ...] = (300, 150, 150)
    feature_dims: tuple[int, ...] = (20, 12, 8)
    communities: int = 3
    anomaly_rate: float = 0.05
    shift: float = 1.5            # anomalous feature mean displacement
    rewire: float = 0.8           # fraction of anomaly edges rewired cross-community
    train_frac: float = 0.4
    val_frac: float = 0.2

    def validate(self) -> None:
        _require_finite(self, "synth_")
        if len(self.sizes) < 2 or any(s < 4 for s in self.sizes):
            raise ValueError("need >= 2 node types with >= 4 nodes each")
        if len(self.feature_dims) != len(self.sizes):
            raise ValueError("feature_dims must match sizes in length")
        if any(d < 1 for d in self.feature_dims):
            raise ValueError("feature dims must be >= 1")
        if not (0.0 <= self.anomaly_rate < 0.5):
            raise ValueError("anomaly rate must lie in [0, 0.5)")
        if self.communities < 1:
            raise ValueError("need >= 1 community")
        if not (0.0 <= self.rewire <= 1.0):
            raise ValueError("rewire fraction must lie in [0, 1]")
        if self.shift < 0.0:
            raise ValueError("shift must be >= 0")
        if not (0.0 < self.train_frac and 0.0 < self.val_frac
                and self.train_frac + self.val_frac < 1.0):
            raise ValueError("train/val fractions must be positive and sum below 1")


# defaults follow the ACM column of the reference hyper-parameter table where
# one exists; the rest are documented package choices
@dataclass
class RunConfig:
    graph: str = ""
    candidates: tuple[int, ...] = DEFAULT_CANDIDATES
    bands: int = 10                      # K
    w_d: float = 0.1
    degree_budget: int = 3               # d
    aligned_dim: int = 512               # d_a
    path_min: int = 2
    path_max: int = 3
    learning_rate: float = 0.0001
    weight_decay: float = 0.0
    epochs: int = 200
    loss_h: float = 2.2                  # H
    loss_l: float = 1.9                  # L
    activation: str = "relu"
    mlp_layers: int = 4
    seed: int = 0
    checkpoint: str = ""                 # consumed by eval
    synth: SyntheticSpec = field(default_factory=SyntheticSpec)

    def validate(self) -> None:
        _require_finite(self)
        if not self.candidates or any(int(i) != i or i < 1 for i in self.candidates):
            raise ValueError("candidates must be a nonempty list of integers >= 1")
        if self.bands < 1:
            raise ValueError("bands must be >= 1")
        if not (0.0 < self.w_d <= 1.0):
            raise ValueError("w_d must lie in (0, 1]")
        if self.degree_budget < 1:
            raise ValueError("degree_budget must be >= 1")
        if self.aligned_dim < 1:
            raise ValueError("aligned_dim must be >= 1")
        if not (1 <= self.path_min <= self.path_max):
            raise ValueError("need 1 <= path_min <= path_max")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not (self.loss_h >= self.loss_l >= 1.0):
            raise ValueError("loss weights must satisfy H >= L >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.mlp_layers < 1:
            raise ValueError("mlp_layers must be >= 1")
        self.synth.validate()

    def arch_fingerprint(self) -> dict:
        """The ARCH_KEYS entries of config_to_dict."""
        doc = config_to_dict(self)
        return {k: doc[k] for k in ARCH_KEYS}


def sub_seed(seed: int, name: str) -> int:
    """Stable named sub-stream of the master seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# config key -> (RunConfig attribute holding the field, or None for RunConfig
# itself; field name): every field by name, SyntheticSpec's as `synth_<name>`
_KEYS = {f.name: (None, f.name) for f in fields(RunConfig) if f.name != "synth"}
_KEYS.update({f"synth_{f.name}": ("synth", f.name) for f in fields(SyntheticSpec)})


def _parse_value(value: str, current):
    """value read as the type of the field's current value; a tuple is
    comma-separated ints, none of them empty."""
    if isinstance(current, tuple):
        return tuple(int(v) for v in value.split(","))
    return type(current)(value)


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines; '#' starts a comment; unknown and repeated
    keys error."""
    cfg = RunConfig()
    seen: dict[str, int] = {}       # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ValueError(f"config line {lineno}: unknown key '{key}'")
        if key in seen:
            raise ValueError(f"config line {lineno}: key '{key}' already set "
                             f"on line {seen[key]}")
        seen[key] = lineno
        owner, name = _KEYS[key]
        target = cfg if owner is None else getattr(cfg, owner)
        try:
            setattr(target, name, _parse_value(value, getattr(target, name)))
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for '{key}': {exc}") from None
    cfg.validate()
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def config_to_dict(cfg: RunConfig | SyntheticSpec) -> dict:
    """Every field by name: tuples as lists, the synthetic spec as a dict."""
    def plain(v):
        if isinstance(v, SyntheticSpec):
            return config_to_dict(v)
        return list(v) if isinstance(v, tuple) else v
    return {f.name: plain(getattr(cfg, f.name)) for f in fields(cfg)}
