"""Synthetic harness tests: exact rendering, anchor visibility, corruption
model, and deterministic regeneration."""

import re

import numpy as np
import pytest

from semloc.geometry import CameraIntrinsics, RigidPose
from semloc.synthetic import (
    FacadePlane,
    generate_scene,
    render_depth_and_labels,
    sample_plane_points,
    street_canyon_spec,
    symmetric_canyon_spec,
    trace_rays,
)

from conftest import pinhole_back_project


def _ray_plane_oracle(plane, origin, d_world):
    """Scalar ray-plane intersection; returns the z-depth parameter or None."""
    n = np.cross(plane.edge_u, plane.edge_v)
    n = n / np.linalg.norm(n)
    denom = float(np.dot(d_world, n))
    if abs(denom) < 1e-12:
        return None
    t = float(np.dot(plane.corner - origin, n) / denom)
    if t <= 1e-9:
        return None
    X = origin + t * d_world
    rel = X - plane.corner
    a = float(np.dot(rel, plane.edge_u) / np.dot(plane.edge_u, plane.edge_u))
    b = float(np.dot(rel, plane.edge_v) / np.dot(plane.edge_v, plane.edge_v))
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        return None
    return t


class TestRendering:
    def test_depth_equals_analytic_intersection(self):
        # stored float32 depth must equal the float32 cast of the exact
        # closed-form ray-plane distance at every pixel
        spec = street_canyon_spec(seed=3, n_db=2, n_queries=0, image_size=(48, 36),
                                  anchors_per_plane=4)
        pose = spec.db_poses[0]
        K = spec.intrinsics
        depth, labels = render_depth_and_labels(spec.planes, pose, K)
        rng = np.random.default_rng(0)
        for _ in range(300):
            x = int(rng.integers(0, K.width))
            y = int(rng.integers(0, K.height))
            d_cam = np.array([(x - K.cx) / K.fx, (y - K.cy) / K.fy, 1.0])
            d_world = pose.rotation.T @ d_cam
            hits = []
            for idx, plane in enumerate(spec.planes):
                t = _ray_plane_oracle(plane, pose.center, d_world)
                if t is not None:
                    hits.append((t, idx))
            if not hits:
                assert depth[y, x] == 0.0
                assert labels[y, x] == 255
            else:
                t, idx = min(hits)
                assert depth[y, x] == np.float32(t)
                assert labels[y, x] == spec.planes[idx].label

    def test_backprojected_pixel_lies_on_surface(self):
        spec = street_canyon_spec(seed=4, n_db=2, n_queries=0, image_size=(48, 36))
        pose = spec.db_poses[1]
        K = spec.intrinsics
        depth, _ = render_depth_and_labels(spec.planes, pose, K)
        ys, xs = np.nonzero(depth > 0)
        rng = np.random.default_rng(1)
        for k in rng.integers(0, len(ys), size=50):
            pix = np.array([float(xs[k]), float(ys[k])])
            X = pinhole_back_project(pix, float(depth[ys[k], xs[k]]), pose, K)
            best = min(abs(np.dot(X - p.corner, p.normal())) for p in spec.planes)
            # float32 depth quantization bounds the off-plane distance
            assert best < 1e-5

    def test_trace_rays_no_hit(self):
        plane = FacadePlane(np.array([0.0, -1.0, 5.0]), np.array([1.0, 0.0, 0.0]),
                            np.array([0.0, 1.0, 0.0]), label=2)
        K = CameraIntrinsics(fx=40.0, fy=40.0, cx=24.0, cy=18.0, width=48, height=36)
        pose = RigidPose(np.eye(3), np.array([50.0, 0.0, 0.0]))
        depth, idx = trace_rays([plane], pose, K, np.array([[24.0, 18.0]]))
        assert depth[0] == 0.0
        assert idx[0] == -1


class TestAnchors:
    def test_sample_plane_points_inside(self):
        plane = FacadePlane(np.array([2.0, -3.0, 1.0]), np.array([4.0, 0.0, 0.0]),
                            np.array([0.0, 3.0, 0.0]), label=2)
        rng = np.random.default_rng(2)
        pts = sample_plane_points(plane, 25, rng)
        assert len(pts) == 25
        rel = pts - plane.corner
        a = rel @ plane.edge_u / np.dot(plane.edge_u, plane.edge_u)
        b = rel @ plane.edge_v / np.dot(plane.edge_v, plane.edge_v)
        assert np.all((a >= 0.0) & (a <= 1.0) & (b >= 0.0) & (b <= 1.0))
        assert np.all(np.abs(rel @ plane.normal()) < 1e-12)

    def test_features_sit_on_anchor_projections_when_noise_free(self, zero_noise_dataset):
        ds = zero_noise_dataset
        rec = ds.db_records[2]
        K = rec.intrinsics
        cam = (ds.anchor_positions - rec.pose.center) @ rec.pose.rotation.T
        front = cam[:, 2] > 0
        proj = np.full((len(cam), 2), np.inf)
        proj[front, 0] = K.fx * cam[front, 0] / cam[front, 2] + K.cx
        proj[front, 1] = K.fy * cam[front, 1] / cam[front, 2] + K.cy
        for fs in rec.features.values():
            for loc in fs.locations:
                d = np.linalg.norm(proj - loc, axis=1)
                assert d.min() < 1e-9  # every keypoint is some anchor's projection


class TestGenerateScene:
    def test_deterministic_regeneration(self):
        spec_a = street_canyon_spec(seed=12, n_db=4, n_queries=3, image_size=(48, 36),
                                    anchors_per_plane=6, noise_profile="day_night",
                                    night_fraction=0.5)
        spec_b = street_canyon_spec(seed=12, n_db=4, n_queries=3, image_size=(48, 36),
                                    anchors_per_plane=6, noise_profile="day_night",
                                    night_fraction=0.5)
        a = generate_scene(spec_a)
        b = generate_scene(spec_b)
        for ra, rb in zip(a.db_records, b.db_records):
            assert np.array_equal(ra.depth, rb.depth)
            assert np.array_equal(ra.labels, rb.labels)
            assert np.array_equal(ra.global_descriptor, rb.global_descriptor)
            for fam in ra.features:
                assert np.array_equal(ra.features[fam].locations, rb.features[fam].locations)
                assert np.array_equal(ra.features[fam].descriptors, rb.features[fam].descriptors)
        for qa, qb in zip(a.queries, b.queries):
            assert qa.condition == qb.condition
            assert np.array_equal(qa.global_descriptor, qb.global_descriptor)

    def test_validation_rejects_bad_specs(self):
        spec = street_canyon_spec(seed=1, n_db=4, n_queries=2, image_size=(48, 36))
        spec.db_poses = spec.db_poses[:1]
        with pytest.raises(ValueError, match="at least 2"):
            generate_scene(spec)
        spec2 = street_canyon_spec(seed=1, n_db=4, n_queries=2, image_size=(48, 36))
        spec2.query_conditions = ["day"]
        with pytest.raises(ValueError, match="disagree"):
            generate_scene(spec2)
        spec3 = street_canyon_spec(seed=1, n_db=4, n_queries=2, image_size=(48, 36))
        spec3.query_conditions = ["day", "dusk"]
        with pytest.raises(ValueError, match="condition"):
            generate_scene(spec3)

    def test_night_corruption_degrades_corner_family(self):
        # night queries: the handcrafted-like family loses its matches while
        # the learned-like family keeps working (by construction)
        from semloc.matching import match_family

        spec = street_canyon_spec(seed=13, n_db=6, n_queries=12, image_size=(96, 72),
                                  anchors_per_plane=30, noise_profile="day_night",
                                  night_fraction=1.0, length=18.0)
        ds = generate_scene(spec)

        def correct_fraction(fam_name):
            good = 0
            total = 0
            for q in ds.queries:
                # compare against the companion day rendering of the same pose
                for rec in ds.db_records[:3]:
                    matches = match_family(q.features[fam_name], rec.features[fam_name])
                    total += len(matches)
                    for qi, di in matches:
                        ql = q.features[fam_name].locations[qi]
                        # a correct match pairs observations of one anchor:
                        # project that anchor into the query and compare
                        db_loc = rec.features[fam_name].locations[di]
                        cam = (ds.anchor_positions - rec.pose.center) @ rec.pose.rotation.T
                        front = cam[:, 2] > 0
                        proj = np.full((len(cam), 2), np.inf)
                        proj[front, 0] = rec.intrinsics.fx * cam[front, 0] / cam[front, 2] + rec.intrinsics.cx
                        proj[front, 1] = rec.intrinsics.fy * cam[front, 1] / cam[front, 2] + rec.intrinsics.cy
                        anchor = int(np.argmin(np.linalg.norm(proj - db_loc, axis=1)))
                        qpose = ds.gt_poses[q.image_id]
                        qcam = qpose.rotation @ (ds.anchor_positions[anchor] - qpose.center)
                        if qcam[2] <= 0:
                            continue
                        qproj = np.array([
                            q.intrinsics.fx * qcam[0] / qcam[2] + q.intrinsics.cx,
                            q.intrinsics.fy * qcam[1] / qcam[2] + q.intrinsics.cy,
                        ])
                        if np.linalg.norm(qproj - ql) < 3.0:
                            good += 1
            return good / max(total, 1)

        assert correct_fraction("corner") < correct_fraction("blob")

    def test_symmetric_scene_halves_are_congruent(self):
        spec = symmetric_canyon_spec(seed=14)
        half = 20.0
        # every wall plane in the first half has a geometric twin at z + 20
        walls = [p for p in spec.planes if p.label != 0]
        first = [p for p in walls if p.corner[2] < half - 1e-9]
        for p in first:
            twin = [
                t for t in walls
                if np.allclose(t.corner, p.corner + np.array([0, 0, half]))
                and np.allclose(t.edge_u, p.edge_u) and np.allclose(t.edge_v, p.edge_v)
            ]
            assert len(twin) == 1
            assert twin[0].label != p.label  # different palette

    def test_every_camera_sees_geometry_and_anchors(self):
        spec = street_canyon_spec(seed=15, n_db=4, n_queries=2, image_size=(48, 36),
                                  anchors_per_plane=8)
        ds = generate_scene(spec)
        for rec in ds.db_records:
            assert np.any(rec.depth > 0)
            assert rec.global_descriptor is not None


# At z < 0 looking along -z, away from the canyon: no plane in view.
_FACING_AWAY = RigidPose(np.diag([-1.0, 1.0, -1.0]), np.array([0.0, -1.5, -1.0]))
# Mid-street looking straight down: only the road, and anchors sit only on walls.
_ROAD_ONLY = RigidPose(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
                       np.array([0.0, -1.5, 20.0]))


@pytest.mark.parametrize("poses, index, pose, message", [
    ("query_poses", 0, _FACING_AWAY, "query camera q000 sees no scene geometry"),
    ("db_poses", 1, _FACING_AWAY, "database camera db001 sees no scene geometry"),
    ("db_poses", 2, _ROAD_ONLY, "database camera db002 sees no anchors"),
    ("query_poses", 1, _ROAD_ONLY, "query camera q001 sees no anchors"),
], ids=["query-facing-away", "database-facing-away", "database-road-only", "query-road-only"])
def test_blind_camera_is_named(poses, index, pose, message):
    spec = street_canyon_spec(seed=1, n_db=4, n_queries=2, image_size=(48, 36))
    getattr(spec, poses)[index] = pose
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_scene(spec)


def _same_spec(a, b) -> bool:
    def poses(spec):
        return [(p.rotation.tolist(), p.center.tolist()) for p in spec.db_poses + spec.query_poses]

    return (
        (a.seed, a.intrinsics, a.query_conditions, a.families, a.anchors_per_plane)
        == (b.seed, b.intrinsics, b.query_conditions, b.families, b.anchors_per_plane)
        and (a.anchor_plane_indices, a.global_dim, a.global_sigma)
        == (b.anchor_plane_indices, b.global_dim, b.global_sigma)
        and [p.corner.tolist() for p in a.planes] == [p.corner.tolist() for p in b.planes]
        and poses(a) == poses(b)
    )


class TestSceneSpecFile:
    def _parse(self, tmp_path, text):
        from semloc.synthetic import parse_scene_spec_file

        p = tmp_path / "scene.txt"
        p.write_text(text)
        return parse_scene_spec_file(p)

    def test_defaults_are_the_preset_functions(self, tmp_path):
        assert _same_spec(self._parse(tmp_path, ""), street_canyon_spec())
        assert _same_spec(self._parse(tmp_path, "preset = canyon\n"), street_canyon_spec())
        assert _same_spec(self._parse(tmp_path, "preset = symmetric\n"), symmetric_canyon_spec())

    def test_values_reach_the_preset(self, tmp_path):
        spec = self._parse(tmp_path, "n_db = 6\nimage_width = 80\nnoise_profile = day_night\n"
                                     "night_fraction = 0.5\nn_queries = 4\nseed = 3\n")
        expected = street_canyon_spec(seed=3, n_db=6, n_queries=4, image_size=(80, 120),
                                      noise_profile="day_night", night_fraction=0.5)
        assert _same_spec(spec, expected)

    def test_symmetric_preset(self, tmp_path):
        spec = self._parse(tmp_path, "n_db = 8\nimage_height = 40\nlength = 32.0\n"
                                     "preset = symmetric\n")
        assert _same_spec(spec, symmetric_canyon_spec(n_db=8, image_size=(64, 40), length=32.0))

    def test_unknown_key_rejected(self, tmp_path):
        from semloc.formats import DataFormatError

        with pytest.raises(DataFormatError, match=r"scene.txt:2: unknown scene spec key 'warp'"):
            self._parse(tmp_path, "preset = canyon\nwarp = 9\n")

    def test_repeated_key_fails_at_its_second_line(self, tmp_path):
        from semloc.formats import DataFormatError

        with pytest.raises(DataFormatError, match=r"scene.txt:3: repeated key 'seed'"):
            self._parse(tmp_path, "seed = 1\nn_db = 6\nseed = 2\n")

    def test_foreign_key_bad_preset_and_bad_value_rejected(self, tmp_path):
        from semloc.formats import DataFormatError

        with pytest.raises(DataFormatError, match=r"scene.txt:1: preset 'symmetric' takes no 'n_q"):
            self._parse(tmp_path, "n_queries = 5\npreset = symmetric\n")
        with pytest.raises(DataFormatError, match=r"scene.txt:1: unknown scene preset 'round'"):
            self._parse(tmp_path, "preset = round\n")
        with pytest.raises(DataFormatError, match=r"scene.txt:1: bad value for n_db: 'many'"):
            self._parse(tmp_path, "n_db = many\n")

    @pytest.mark.parametrize("line, message", [
        ("night_fraction = 1.5", "night_fraction must lie in [0, 1], got 1.5"),
        ("night_fraction = -0.5", "night_fraction must lie in [0, 1], got -0.5"),
        ("night_fraction = nan", "night_fraction must lie in [0, 1], got nan"),
        ("image_width = 0", "focal lengths must be positive, got fx=0.0, fy=0.0"),
    ])
    def test_value_the_preset_refuses_names_the_file(self, tmp_path, line, message):
        from semloc.formats import DataFormatError

        with pytest.raises(DataFormatError) as exc:
            self._parse(tmp_path, f"n_queries = 4\n{line}\n")
        assert str(exc.value) == f"{tmp_path / 'scene.txt'}: preset 'canyon': {message}"

