import json

import pytest

from wlf.clustering import ClassRadii
from wlf.config import ConfigError, PipelineConfig
from wlf.range_image import DcsConfig
from wlf.voting import PvcConfig


def non_default() -> PipelineConfig:
    return PipelineConfig(
        frames="data/*",
        out_dir="runs/x",
        threads=3,
        dcs=DcsConfig(window=6, depth_base=0.3),
        radii=ClassRadii({3: 0.2, 1: 0.5, 12: 1.25}),
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
            {"frames": 3},
            {"radii": [0.6]},
            {"radii": {"1": -0.6}},
            {"dcs": {"window": 0}},
            {"pvc": {"n_hist": 4}},
        ],
        ids=["stages-string", "unknown-stage", "threads-float", "frames-number", "radii-list",
             "negative-radius", "dcs-window-0", "pvc-unknown-key"],
    )
    def test_bad_config_is_config_error(self, data):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(data)
