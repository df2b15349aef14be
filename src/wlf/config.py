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

import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .fields import check_fields, integer, leaf, listof, mapping, name, number, within
from .range_image import DcsConfig
from .ring_correct import RscConfig
from .voting import PvcConfig

# The interpreter's own sha256, the module hashlib itself falls back to:
# hashlib would map OpenSSL's libcrypto (about 3.6 MiB of RSS) into every run.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

__all__ = ["ConfigError", "STAGES", "IpgConfig", "PipelineConfig", "read_config"]

# The optional label-correction stages in run order; frustum crop and
# clustering always run.
STAGES = ("spg", "pvc", "rsc")


@dataclass
class IpgConfig:
    """Fusion exponent k and the trinarisation thresholds of ``wlf ipg``,
    kept here so that a config needs no import of ``wlf.mask_fusion``."""

    k: float = leaf(1.0)
    tau_low: float = leaf(0.3, 0, 1, exclusive=True)
    tau_high: float = leaf(0.7, 0, 1, exclusive=True)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.tau_low >= self.tau_high:
            raise ValueError(f"tau_low {self.tau_low!r} is not below tau_high {self.tau_high!r}")


# Config-file sections given as keyword objects of their own dataclass.
_SECTIONS = {"dcs": DcsConfig, "pvc": PvcConfig, "rsc": RscConfig, "ipg": IpgConfig}


class ConfigError(ValueError):
    """Malformed pipeline configuration."""


@dataclass
class PipelineConfig:
    frames: str = leaf("")
    out_dir: str = leaf("")
    # A pool starts as many threads as it has frames in flight, up to this.
    threads: int = leaf(1, 1, 64)
    dcs: DcsConfig = field(default_factory=DcsConfig)
    # Clustering radius in metres per class id.
    radii: dict[int, float] = field(default_factory=lambda: {1: 0.6, 2: 0.1, 3: 0.15})
    pvc: PvcConfig = field(default_factory=PvcConfig)
    rsc: RscConfig = field(default_factory=RscConfig)
    ipg: IpgConfig = field(default_factory=IpgConfig)
    stages: tuple[str, ...] = STAGES

    def __post_init__(self) -> None:
        # The sections check themselves as they are made.
        try:
            check_fields(self)
            unknown = [s for s in listof(self.stages, "stages", name) if s not in STAGES]
            if unknown:
                raise ValueError(f"stages {unknown} are not among {list(STAGES)}")
            self.stages = tuple(s for s in STAGES if s in self.stages)
            self.radii = {
                integer(c, "radii key", 1): float(number(r, f"radii.{c}", 0, exclusive=True))
                for c, r in mapping(self.radii, "radii").items()
            }
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        data = asdict(self)
        data["radii"] = {str(k): v for k, v in sorted(self.radii.items())}
        data["stages"] = list(self.stages)
        return data

    def config_hash(self) -> str:
        """The first 16 hex digits of the sha256 of the sorted-key JSON of
        ``to_dict`` but frames, out_dir and threads, which never change a run's
        output: the same settings hash alike wherever the files lie."""
        unhashed = ("frames", "out_dir", "threads")
        data = {k: v for k, v in self.to_dict().items() if k not in unhashed}
        return sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """The config a JSON object gives; ConfigError naming a bad key or value."""
        try:
            kwargs = dict(mapping(data, "config", cls))
            for key, section in _SECTIONS.items():
                if key in kwargs:
                    values = mapping(kwargs[key], key, section)
                    with within(key):
                        kwargs[key] = section(**values)
            if "radii" in kwargs:
                # A key is a class id only as str(int) writes it, so that "1" and
                # "01" never name one class; the constructor refuses any other.
                kwargs["radii"] = {int(k) if re.fullmatch(r"[1-9][0-9]*", k) else k: r
                                   for k, r in mapping(kwargs["radii"], "radii").items()}
            return cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def read_config(path: str | Path, build):
    """``build`` of the JSON file at ``path``; a ConfigError names the file for any ValueError."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        return build(json.loads(path.read_text()))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
