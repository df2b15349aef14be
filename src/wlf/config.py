"""Pipeline configuration: JSON-loadable dataclasses with the stock defaults.

Every knob defaults to the standard module setup (0.24 m depth threshold with
a window of 10 at 50 m, class radii 0.6/0.1/0.15 m, four-epoch voting at a 0.5
confidence threshold, ring-vote thresholds 0.5/0.7, mask thresholds 0.3/0.7
with k = 1, all of spg, pvc and rsc on), so an empty config runs the reference
setup. A config holds only what a command reads. Config files and command-line
flags both end in the constructor, so ``__post_init__`` and the sections' own
checks validate either; every failure is a ``ConfigError``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .clustering import ClassRadii
from .mask_fusion import IpgConfig
from .range_image import DcsConfig
from .ring_correct import RscConfig
from .voting import PvcConfig

__all__ = ["ConfigError", "STAGES", "PipelineConfig", "check_fields"]

# The optional label-correction stages in run order; frustum crop and
# clustering always run.
STAGES = ("spg", "pvc", "rsc")

# Config-file sections given as keyword objects of their own dataclass.
_SECTIONS = {"dcs": DcsConfig, "pvc": PvcConfig, "rsc": RscConfig, "ipg": IpgConfig}


class ConfigError(ValueError):
    """Malformed pipeline configuration."""


def _same_kind(value, default) -> bool:
    """Whether ``value`` fits a field whose default is ``default``: an int
    (not a bool) for an int, any number for a float, and for a tuple a tuple
    of as many such items."""
    if isinstance(default, tuple):
        return (isinstance(value, tuple) and len(value) == len(default)
                and all(map(_same_kind, value, default)))
    kinds = int if isinstance(default, int) else (int, float)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def check_fields(obj) -> None:
    """TypeError unless each field of the dataclass ``obj`` is of its
    default's kind; ValueError unless each number in it is finite."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not _same_kind(value, f.default):
            raise TypeError(f"{f.name} must be {f.type}, not {value!r}")
        if not all(map(_finite, value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{f.name} must be finite, not {value!r}")


@dataclass
class PipelineConfig:
    frames: str = ""
    out_dir: str = ""
    threads: int = 1
    dcs: DcsConfig = field(default_factory=DcsConfig)
    radii: ClassRadii = field(default_factory=ClassRadii)
    pvc: PvcConfig = field(default_factory=PvcConfig)
    rsc: RscConfig = field(default_factory=RscConfig)
    ipg: IpgConfig = field(default_factory=IpgConfig)
    stages: tuple[str, ...] = STAGES

    def __post_init__(self) -> None:
        if not isinstance(self.frames, str) or not isinstance(self.out_dir, str):
            raise ConfigError("frames and out_dir must be strings")
        if not isinstance(self.threads, int) or self.threads < 1:
            raise ConfigError("threads must be an integer >= 1")
        if not isinstance(self.stages, (list, tuple)):
            raise ConfigError(f"stages must be a list drawn from {list(STAGES)}")
        unknown = [name for name in self.stages if name not in STAGES]
        if unknown:
            raise ConfigError(f"unknown stages: {unknown}")
        self.stages = tuple(name for name in STAGES if name in self.stages)
        for name in _SECTIONS:
            try:
                check_fields(getattr(self, name))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc

    def to_dict(self) -> dict:
        data = asdict(self)
        data["radii"] = {str(k): v for k, v in sorted(self.radii.radii.items())}
        data["stages"] = list(self.stages)
        return data

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            kwargs = {k: _SECTIONS[k](**v) if k in _SECTIONS else v for k, v in data.items()}
            if "radii" in data:
                kwargs["radii"] = ClassRadii({int(k): float(v) for k, v in data["radii"].items()})
            return cls(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"bad pipeline config: {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)
