import numpy as np
import pytest

from wlf.clustering import ClassRadii, ccl_cluster
from wlf.frames import crop_frustum, project_points
from wlf.range_image import build_range_image
from wlf.spatial import PseudoLabels
from wlf.synth import CLASS_NAMES, SceneConfig, fabricate_scores, generate_scene
from wlf.voting import PvcConfig, foreground_score, vote_correct


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
        proj = project_points(scene.calibration, frame)
        vis = hits & proj.valid
        u, v = proj.pixels[vis, 0], proj.pixels[vis, 1]
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


class TestFabricateScores:
    def test_zero_noise_is_one_hot(self):
        gt = np.array([0, 1, 3, 2])
        scores = fabricate_scores(gt, 3, sigma=0.0, seed=0)
        want = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(scores, want)

    def test_deterministic_per_seed_epoch(self):
        gt = np.array([1, 2, 0])
        a = fabricate_scores(gt, 3, 0.3, seed=5, epoch=2)
        b = fabricate_scores(gt, 3, 0.3, seed=5, epoch=2)
        c = fabricate_scores(gt, 3, 0.3, seed=5, epoch=3)
        d = fabricate_scores(gt, 3, 0.3, seed=6, epoch=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
        assert a.shape == c.shape == d.shape

    def test_scores_clamped(self):
        gt = np.ones(50, dtype=int)
        scores = fabricate_scores(gt, 3, 1.0, seed=1)
        assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_noise_free_votes_reproduce_gt_on_frustum_points(self):
        # End-to-end: perfect teacher scores drive every in-box point to its
        # ground-truth semantic label.
        scene = generate_scene(SceneConfig(seed=21, box_pad_px=8.0))
        frame = scene.frame
        proj = project_points(scene.calibration, frame)
        assign = crop_frustum(proj, scene.boxes)
        scores = np.stack([
            foreground_score(fabricate_scores(frame.gt_semantic, 3, 0.0, seed=21, epoch=epoch))
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

    def test_int_accepted_for_float(self):
        assert SceneConfig(max_range=100, wall_distance=(30, 40)).max_range == 100

    def test_class_names_stable(self):
        assert CLASS_NAMES == ["vehicle", "pedestrian", "cyclist"]
