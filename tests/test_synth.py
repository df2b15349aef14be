import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cast_full, fabricate_votes_full, ray_directions_grid

from wlf import synth
from wlf.clustering import ClassRadii, ccl_cluster
from wlf.frames import crop_frustum, project_points
from wlf.range_image import build_range_image
from wlf.spatial import PseudoLabels
from wlf.synth import CLASS_NAMES, SceneConfig, fabricate_votes, generate_scene
from wlf.voting import PvcConfig, vote_correct


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = generate_scene(SceneConfig(seed=42))
        b = generate_scene(SceneConfig(seed=42))
        assert np.array_equal(a.frame.points, b.frame.points)
        assert np.array_equal(a.frame.beam_row, b.frame.beam_row)
        assert np.array_equal(a.frame.gt_semantic, b.frame.gt_semantic)
        assert np.array_equal(a.frame.gt_instance, b.frame.gt_instance)
        assert [x.bounds for x in a.boxes] == [x.bounds for x in b.boxes]

    def test_different_seeds_differ(self):
        a = generate_scene(SceneConfig(seed=1))
        b = generate_scene(SceneConfig(seed=2))
        assert a.frame.num_points != b.frame.num_points or not np.array_equal(
            a.frame.points, b.frame.points
        )


class TestSceneContents:
    def single_vehicle_cfg(self, seed=5):
        return SceneConfig(
            seed=seed,
            vehicles=(1, 1),
            pedestrians=(0, 0),
            cyclists=(0, 0),
            background_walls=(0, 0),
            vehicle_distance=(9.0, 12.0),
        )

    def test_single_cuboid_instance_and_box(self):
        scene = generate_scene(self.single_vehicle_cfg())
        frame = scene.frame
        hits = frame.gt_semantic == 1
        assert hits.any()
        assert (frame.gt_instance[hits] == 1).all()
        assert len(scene.boxes) == 1
        box = scene.boxes[0]
        assert box.box_id == 1 and box.class_id == 1
        index, pixels = project_points(scene.calibration, frame)
        vis = hits[index]
        u, v = pixels[vis, 0], pixels[vis, 1]
        assert box.contains(u, v).all()

    def test_empty_scene_is_all_background(self):
        cfg = SceneConfig(
            seed=0, vehicles=(0, 0), pedestrians=(0, 0), cyclists=(0, 0),
            background_walls=(0, 0),
        )
        scene = generate_scene(cfg)
        assert (scene.frame.gt_semantic == 0).all()
        assert (scene.frame.gt_instance == 0).all()
        assert scene.boxes == []

    def test_points_on_ground_or_primitive(self):
        # Without jitter, ground returns sit exactly on z = 0 (world frame) and
        # everything else on an object surface above it.
        cfg = self.single_vehicle_cfg()
        scene = generate_scene(cfg)
        z_world = scene.frame.points[:, 2] + cfg.sensor_height
        ground = scene.frame.gt_semantic == 0
        np.testing.assert_allclose(z_world[ground], 0.0, atol=1e-9)
        assert (z_world[~ground] > -1e-9).all()

    def test_jitter_stays_bounded(self):
        base = generate_scene(self.single_vehicle_cfg())
        noisy = generate_scene(
            SceneConfig(**{**self.single_vehicle_cfg().to_dict(), "depth_jitter": 0.05})
        )
        r0 = np.linalg.norm(base.frame.xyz, axis=1)
        r1 = np.linalg.norm(noisy.frame.xyz, axis=1)
        assert r0.shape == r1.shape
        assert np.abs(r1 - r0).max() < 6 * 0.05

    def test_range_image_depth_matches_ray_length(self):
        cfg = self.single_vehicle_cfg()
        scene = generate_scene(cfg)
        depth, cell = build_range_image(scene.frame, cfg.beams, cfg.columns)
        # One point per cell (see below), so each cell holds its point's range.
        ranges = np.linalg.norm(scene.frame.xyz, axis=1)
        np.testing.assert_allclose(depth.ravel()[cell], ranges, atol=1e-5)

    def test_each_cell_hosts_one_point(self):
        # Ray-per-cell construction: no collisions without jitter.
        cfg = self.single_vehicle_cfg()
        scene = generate_scene(cfg)
        depth, cell = build_range_image(scene.frame, cfg.beams, cfg.columns)
        assert np.unique(cell).size == np.isfinite(depth).sum() == scene.frame.num_points

    def test_unoccluded_objects_are_radius_connected(self):
        # Side-view geometry at full azimuth resolution: a sensor above the
        # roof sees sparse grazing roof returns, and coarse columns detach the
        # silhouette limbs of thin cylinders; both are legitimate splits, so
        # the connectivity assumption is validated away from those regimes.
        radii = ClassRadii()
        for seed, cfg in (
            (
                3,
                SceneConfig(
                    seed=3, vehicles=(1, 1), pedestrians=(0, 0), cyclists=(0, 0),
                    background_walls=(0, 0), vehicle_distance=(9.0, 12.0),
                    sensor_height=1.2, columns=2048,
                ),
            ),
            (
                4,
                SceneConfig(
                    seed=4, vehicles=(0, 0), pedestrians=(1, 1), cyclists=(0, 0),
                    background_walls=(0, 0), pedestrian_distance=(4.0, 6.0),
                    sensor_height=1.2, columns=2048,
                ),
            ),
            (
                5,
                SceneConfig(
                    seed=5, vehicles=(0, 0), pedestrians=(0, 0), cyclists=(1, 1),
                    background_walls=(0, 0), cyclist_distance=(4.0, 8.0),
                    sensor_height=1.2, columns=2048,
                ),
            ),
        ):
            scene = generate_scene(cfg)
            frame = scene.frame
            assert scene.boxes, f"seed {seed}: no visible object"
            for box in scene.boxes:
                pts = frame.xyz[frame.gt_instance == box.box_id]
                comps = ccl_cluster(pts, radii.for_class(box.class_id))
                assert comps.num == 1, f"seed {seed} class {box.class_id} split"

    def test_instance_ids_match_box_ids(self):
        scene = generate_scene(SceneConfig(seed=9))
        ids = {b.box_id for b in scene.boxes}
        assert ids == set(range(1, len(scene.boxes) + 1))
        for box in scene.boxes:
            assert (scene.frame.gt_instance == box.box_id).any()


def full_cast(objects, origin, dirs, columns):
    return cast_full(objects, origin, dirs)


def ray_azimuth(k: int, columns: int) -> float:
    return -math.pi + (k + 0.5) * (2.0 * math.pi / columns)


@st.composite
def edge_objects(draw, columns: int):
    """A cylinder tangent to, or a box with a corner on, the vertical plane
    of one column's rays: the span's pad is what keeps such a ray cast."""
    az = ray_azimuth(draw(st.integers(0, columns - 1)), columns)
    dist = draw(st.floats(2.0, 25.0))
    if draw(st.booleans()):
        radius = draw(st.floats(0.2, 1.5))
        centre = az + draw(st.sampled_from([-1.0, 1.0])) * math.asin(radius / dist)
        return synth._Cylinder(
            class_id=draw(st.sampled_from([2, 3])),
            center_xy=dist * np.array([math.cos(centre), math.sin(centre)]),
            radius=radius, height=draw(st.floats(0.5, 3.0)),
        )
    size = np.array([draw(st.floats(0.5, 6.0)), draw(st.floats(0.5, 6.0)), draw(st.floats(0.5, 3.0))])
    yaw = draw(st.floats(0.0, math.pi))
    sx, sy = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    c, s = math.cos(yaw), math.sin(yaw)
    hx, hy = sx * size[0] / 2.0, sy * size[1] / 2.0
    x = dist * math.cos(az) - (c * hx - s * hy)
    y = dist * math.sin(az) - (s * hx + c * hy)
    return synth._Cuboid(class_id=draw(st.sampled_from([0, 1])),
                         center=np.array([x, y, size[2] / 2.0]), size=size, yaw=yaw)


@st.composite
def cast_cases(draw):
    columns = draw(st.one_of(st.integers(1, 8), st.sampled_from([31, 64, 360, 512])))
    fov_down = draw(st.floats(-90.0, 10.0))
    wedge = draw(st.one_of(
        st.sampled_from([(150.0, 210.0), (-180.0, 180.0), (-210.0, -150.0), (-32.0, 32.0)]),
        st.tuples(st.floats(-360.0, 360.0), st.floats(0.0, 400.0)).map(lambda w: (w[0], w[0] + w[1])),
    ))
    near = draw(st.floats(0.05, 3.0))  # inside or just outside a cylinder
    cfg = SceneConfig(
        seed=draw(st.integers(0, 2**31 - 1)),
        beams=draw(st.integers(1, 12)),
        columns=columns,
        fov_down_deg=fov_down,
        fov_up_deg=draw(st.floats(fov_down + 1.0, 90.0)),
        azimuth_deg=wedge,
        vehicles=(0, draw(st.integers(0, 4))),
        pedestrians=(0, draw(st.integers(0, 4))),
        cyclists=(0, draw(st.integers(0, 3))),
        background_walls=(0, draw(st.integers(0, 3))),
        vehicle_distance=(draw(st.floats(0.5, 4.0)), 20.0),
        pedestrian_distance=(near, near + draw(st.floats(0.0, 6.0))),
        cyclist_distance=(near, near + draw(st.floats(0.0, 8.0))),
        wall_distance=(draw(st.floats(1.0, 30.0)), 45.0),
        min_separation=draw(st.floats(0.0, 2.5)),
        depth_jitter=draw(st.sampled_from([0.0, 0.02, 0.3])),
        box_pad_px=draw(st.sampled_from([0.0, 2.5, 40.0])),
    )
    # Copies of placed objects under another class tie with them on every ray.
    copies = draw(st.lists(st.integers(0, 20), max_size=3))
    edges = draw(st.lists(edge_objects(columns), max_size=3))
    return cfg, copies, edges


def placing(copies: list[int], edges: list):
    place = synth._place_objects

    def placed(cfg, rng):
        objects = place(cfg, rng)
        tied = [objects[i % len(objects)] for i in copies] if objects else []
        return objects + [replace(o, class_id=(o.class_id + 1) % 4) for o in tied] + edges

    return mock.patch.object(synth, "_place_objects", placed)


class TestCastMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(cast_cases())
    def test_generate_scene_matches_full_cast(self, case):
        cfg, copies, edges = case
        with placing(copies, edges):
            got = generate_scene(cfg)
            with mock.patch.object(synth, "_cast", full_cast):
                want = generate_scene(cfg)
        for name in ("points", "beam_row", "gt_semantic", "gt_instance"):
            a, b = getattr(got.frame, name), getattr(want.frame, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert [(x.box_id, x.class_id, x.bounds) for x in got.boxes] == [
            (x.box_id, x.class_id, x.bounds) for x in want.boxes
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 70), st.integers(1, 3000), st.floats(-90.0, 89.0), st.floats(1.0, 180.0))
    def test_ray_directions_match_meshgrid(self, beams, columns, fov_down, fov_span):
        fov_up = min(fov_down + fov_span, 90.0)
        cfg = SceneConfig(beams=beams, columns=columns, fov_down_deg=fov_down, fov_up_deg=fov_up)
        want = ray_directions_grid(beams, columns, fov_up, fov_down)
        assert np.array_equal(synth._ray_directions(cfg), want)


class TestFabricateScores:
    def test_zero_noise_is_one_hot(self):
        # Without noise a point votes 1 when its label names a class, else 0.
        gt = np.array([0, 1, 3, 2, -1, 4])
        votes = fabricate_votes(gt, 3, sigma=0.0, seed=0)
        np.testing.assert_array_equal(votes, [0.0, 1.0, 1.0, 1.0, 0.0, 0.0])

    def test_deterministic_per_seed_epoch(self):
        gt = np.array([1, 2, 0])
        a = fabricate_votes(gt, 3, 0.3, seed=5, epoch=2)
        b = fabricate_votes(gt, 3, 0.3, seed=5, epoch=2)
        c = fabricate_votes(gt, 3, 0.3, seed=5, epoch=3)
        d = fabricate_votes(gt, 3, 0.3, seed=6, epoch=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
        assert a.shape == c.shape == d.shape == gt.shape

    def test_scores_clamped(self):
        gt = np.ones(50, dtype=int)
        votes = fabricate_votes(gt, 3, 1.0, seed=1)
        assert votes.min() >= 0.0 and votes.max() <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-1, 6), max_size=80),
        st.integers(1, 4),
        st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
        st.integers(0, 2**32 - 1),
        st.integers(0, 20),
    )
    def test_matches_class_score_oracle(self, gt, n_cls, sigma, seed, epoch):
        # The best score of the full clamped class-score matrix, bit for bit.
        gt = np.array(gt, dtype=np.int32)
        got = fabricate_votes(gt, n_cls, sigma, seed, epoch)
        want = fabricate_votes_full(gt, n_cls, sigma, seed, epoch)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_noise_free_votes_reproduce_gt_on_frustum_points(self):
        # End-to-end: perfect teacher scores drive every in-box point to its
        # ground-truth semantic label.
        scene = generate_scene(SceneConfig(seed=21, box_pad_px=8.0))
        frame = scene.frame
        index, pixels = project_points(scene.calibration, frame)
        assign = crop_frustum(index, pixels, frame.num_points, scene.boxes)
        scores = np.stack([
            fabricate_votes(frame.gt_semantic, 3, 0.0, seed=21, epoch=epoch)
            for epoch in range(4)
        ])
        start = PseudoLabels(
            semantic=np.full(frame.num_points, -1, dtype=np.int32),
            instance=np.zeros(frame.num_points, dtype=np.int32),
        )
        out = vote_correct(scores, PvcConfig(), start, assign, scene.boxes)
        in_box = assign > 0
        box_class = {b.box_id: b.class_id for b in scene.boxes}
        frustum_cls = np.array([box_class.get(int(b), 0) for b in assign])
        fg = in_box & (frame.gt_semantic > 0)
        # Foreground votes land the box class, which matches GT for points
        # assigned to their own object's box.
        own = fg & (frame.gt_instance == assign)
        assert np.array_equal(out.semantic[own], frame.gt_semantic[own])
        bg = in_box & (frame.gt_semantic == 0)
        assert (out.semantic[bg] == 0).all()


class TestConfig:
    def test_round_trip_dict(self):
        cfg = SceneConfig(seed=3, vehicles=(1, 2), box_pad_px=4.0)
        again = SceneConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(beams=0)
        with pytest.raises(ValueError):
            SceneConfig(vehicles=(3, 1))
        with pytest.raises(ValueError):
            SceneConfig(depth_jitter=-0.1)

    @pytest.mark.parametrize(
        "field", [{"seed": "x"}, {"beams": 64.0}, {"box_pad_px": True}, {"vehicles": (1, 2, 3)},
                  {"cyclists": (0, 2.0)}, {"camera_offset": [0.2, 0.0, -0.3]}],
    )
    def test_field_types_checked(self, field):
        with pytest.raises(TypeError, match=next(iter(field))):
            SceneConfig(**field)

    @pytest.mark.parametrize(
        "field",
        [{"max_range": math.nan}, {"score_sigma": math.nan}, {"fov_up_deg": math.inf},
         {"depth_jitter": math.inf}, {"azimuth_deg": (-math.inf, 32.0)},
         {"camera_offset": (0.2, math.nan, -0.3)}],
    )
    def test_non_finite_rejected(self, field):
        with pytest.raises(ValueError, match=f"{next(iter(field))} must be finite"):
            SceneConfig(**field)

    @pytest.mark.parametrize(
        "fov", [(91.0, -24.5), (2.0, -90.5), (-10.0, -10.0), (2.0, 5.0)],
    )
    def test_beam_elevations_within_plus_minus_90(self, fov):
        with pytest.raises(ValueError, match="fov"):
            SceneConfig(fov_up_deg=fov[0], fov_down_deg=fov[1])
        assert SceneConfig(fov_up_deg=90.0, fov_down_deg=-90.0).beams == 32

    def test_int_accepted_for_float(self):
        assert SceneConfig(max_range=100, wall_distance=(30, 40)).max_range == 100

    def test_class_names_stable(self):
        assert CLASS_NAMES == ["vehicle", "pedestrian", "cyclist"]
