import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from wlf.config import ConfigError, PipelineConfig
from wlf.range_image import DcsConfig
from wlf.voting import PvcConfig

SRC = Path(__file__).resolve().parent.parent / "src"


def non_default() -> PipelineConfig:
    return PipelineConfig(
        frames="data/*",
        out_dir="runs/x",
        threads=3,
        dcs=DcsConfig(window=6, depth_base=0.3),
        radii={3: 0.2, 1: 0.5, 12: 1.25},
        pvc=PvcConfig(tau_high=0.8, tau_low=0.2, n_his=2),
        stages=("rsc", "spg"),
    )


class TestRoundTrip:
    @pytest.mark.parametrize("cfg", [PipelineConfig(), non_default()], ids=["default", "custom"])
    def test_from_dict_inverts_to_dict(self, cfg):
        data = json.loads(json.dumps(cfg.to_dict()))  # as a config file holds it
        again = PipelineConfig.from_dict(data)
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_hash_is_sha256_without_openssl(self):
        # The first 16 hex digits of hashlib's sha256, computed by the
        # interpreter's built-in sha256: loading hashlib would map OpenSSL.
        code = (
            "import json, sys; from wlf.config import PipelineConfig; "
            f"cfgs = [PipelineConfig(), PipelineConfig.from_dict({non_default().to_dict()!r})]; "
            "got = [cfg.config_hash() for cfg in cfgs]; "
            "print([m for m in ('hashlib', '_hashlib') if m in sys.modules]); "
            "import hashlib; "
            "hashed = [{k: v for k, v in cfg.to_dict().items() "
            "if k not in ('frames', 'out_dir', 'threads')} for cfg in cfgs]; "
            "print(got == [hashlib.sha256(json.dumps(d, sort_keys=True).encode())"
            ".hexdigest()[:16] for d in hashed])"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "True"]

    def test_hash_ignores_paths_and_threads(self):
        # Where a run reads and writes, and its thread count, never change
        # its labels; run.json's config block still records them.
        base = non_default()
        moved = replace(base, frames="/elsewhere/frames/*", out_dir="out", threads=1)
        assert moved.config_hash() == base.config_hash()
        assert moved.to_dict() != base.to_dict()

    @pytest.mark.parametrize(
        "change",
        [{"dcs": DcsConfig(window=7)}, {"radii": {1: 0.5}}, {"pvc": PvcConfig(n_his=3)},
         {"stages": ("spg",)}],
        ids=["dcs", "radii", "pvc", "stages"],
    )
    def test_stage_setting_changes_hash(self, change):
        assert replace(PipelineConfig(), **change).config_hash() != PipelineConfig().config_hash()

    def test_radius_keys_are_sorted_strings(self):
        assert list(non_default().to_dict()["radii"]) == ["1", "3", "12"]

    def test_stages_in_run_order(self):
        assert non_default().stages == ("spg", "rsc")
        assert non_default().to_dict()["stages"] == ["spg", "rsc"]
        assert PipelineConfig(stages=["rsc", "pvc", "rsc"]).stages == ("pvc", "rsc")


class TestValidation:
    @pytest.mark.parametrize(
        "data",
        [
            {"stages": "spg"},
            {"stages": ["spg", "warp"]},
            {"threads": 1.5},
            {"threads": True},
            {"frames": 3},
            {"radii": [0.6]},
            {"radii": {"1": -0.6}},
            {"radii": {"1": 0.0}},
            {"radii": {"1": float("nan")}},
            {"radii": {"1": float("inf")}},
            {"radii": {"1": 10**400}},
            {"radii": {"1": "0.5"}},
            {"radii": {"1": True}},
            {"radii": {"1": 0.5, "01": 0.7}},
            {"radii": {"-1": 0.5}},
            {"radii": {"0": 0.5}},
            {"radii": {"+2": 0.5}},
            {"radii": {" 2": 0.5}},
            {"radii": {"2.0": 0.5}},
            {"radii": {"vehicle": 0.5}},
            {"dcs": {"window": 0}},
            {"pvc": {"n_hist": 4}},
        ],
        ids=["stages-string", "unknown-stage", "threads-float", "threads-bool", "frames-number",
             "radii-list", "negative-radius", "radius-zero", "radius-nan", "radius-inf",
             "radius-past-float-range", "radius-string", "radius-bool", "radii-key-leading-zero",
             "radii-key-negative", "radii-key-zero", "radii-key-plus", "radii-key-space",
             "radii-key-float", "radii-key-name", "dcs-window-0", "pvc-unknown-key"],
    )
    def test_bad_config_is_config_error(self, data):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(data)

    @pytest.mark.parametrize(
        "radii",
        [{1: 0.0}, {1: -0.6}, {1: float("nan")}, {1: float("inf")}, {1: True}, {1: "0.5"},
         {0: 0.5}, {-1: 0.5}, {True: 0.5}, {"1": 0.5}, {1.0: 0.5}, [0.6]],
        ids=["zero", "negative", "nan", "inf", "bool", "string", "class-0", "class-negative",
             "class-bool", "class-string", "class-float", "list"],
    )
    def test_bad_radii_constructed_directly(self, radii):
        with pytest.raises(ConfigError, match="radii"):
            PipelineConfig(radii=radii)

    def test_default_radii(self):
        # Vehicle, pedestrian and cyclist; a radius is stored as a float, so
        # an integer radius hashes as its float does.
        assert PipelineConfig().radii == {1: 0.6, 2: 0.1, 3: 0.15}
        cfg = PipelineConfig.from_dict({"radii": {"2": 1}})
        assert cfg.to_dict()["radii"] == {"2": 1.0}
        assert isinstance(cfg.radii[2], float)
        assert cfg.config_hash() == PipelineConfig(radii={2: 1.0}).config_hash()
