"""Global-descriptor retrieval tests with an exhaustive sort oracle."""

import numpy as np
import pytest

from semloc.retrieval import GlobalDescriptor, RetrievalConfig, build_index, query_top_k


def _descs(matrix, prefix="im"):
    return [GlobalDescriptor(f"{prefix}{i:03d}", row) for i, row in enumerate(matrix)]


class TestBuildIndex:
    def test_normalization(self):
        idx = build_index([GlobalDescriptor("a", np.array([3.0, 4.0]))])
        np.testing.assert_allclose(idx.matrix[0], [0.6, 0.8], atol=1e-15)

    def test_duplicates_retained(self):
        v = np.array([1.0, 2.0, 2.0])
        idx = build_index([GlobalDescriptor("a", v), GlobalDescriptor("b", v.copy())])
        assert len(idx) == 2
        assert idx.ids == ("a", "b")

    def test_norms_all_one(self):
        rng = np.random.default_rng(0)
        idx = build_index(_descs(rng.normal(size=(1000, 16))))
        norms = np.linalg.norm(idx.matrix, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_matrix_is_read_only(self):
        idx = build_index([GlobalDescriptor("a", np.array([1.0, 0.0])),
                           GlobalDescriptor("b", np.array([0.0, 1.0]))])
        assert not idx.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            idx.matrix[0] = [0.0, 1.0]
        hits = query_top_k(idx, GlobalDescriptor("q", np.array([1.0, 0.0])), RetrievalConfig())
        assert hits[0] == ("a", 0.0)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero-norm"):
            build_index([GlobalDescriptor("a", np.zeros(4))])

    def test_rejects_mixed_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            build_index([GlobalDescriptor("a", np.ones(4)), GlobalDescriptor("b", np.ones(5))])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_index([])


class TestQueryTopK:
    def test_exact_match_first(self):
        rng = np.random.default_rng(1)
        mat = rng.normal(size=(20, 8))
        idx = build_index(_descs(mat))
        hits = query_top_k(idx, GlobalDescriptor("q", mat[7].copy()), RetrievalConfig(top_k=3))
        assert hits[0][0] == "im007"
        assert hits[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_full_ranking_is_permutation(self):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(15, 6))
        idx = build_index(_descs(mat))
        hits = query_top_k(idx, GlobalDescriptor("q", rng.normal(size=6)), RetrievalConfig(top_k=15))
        assert sorted(i for i, _ in hits) == sorted(idx.ids)

    def test_matches_bruteforce_sort(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(200, 12))
        idx = build_index(_descs(mat))
        q = rng.normal(size=12)
        hits = query_top_k(idx, GlobalDescriptor("q", q), RetrievalConfig(top_k=20))
        # independent oracle: normalize both sides, sort by (distance, id)
        qh = q / np.linalg.norm(q)
        oracle = []
        for i, row in enumerate(mat):
            rh = row / np.linalg.norm(row)
            oracle.append((float(np.linalg.norm(qh - rh)), f"im{i:03d}"))
        oracle.sort()
        assert [(i, pytest.approx(d, abs=1e-12)) for d, i in oracle[:20]] == [
            (i, pytest.approx(d, abs=1e-12)) for i, d in hits
        ]

    def test_distances_sorted_and_bounded(self):
        rng = np.random.default_rng(4)
        idx = build_index(_descs(rng.normal(size=(50, 5))))
        hits = query_top_k(idx, GlobalDescriptor("q", rng.normal(size=5)), RetrievalConfig(top_k=50))
        d = [dist for _, dist in hits]
        assert all(a <= b for a, b in zip(d, d[1:]))
        assert all(0.0 <= x <= 2.0 for x in d)

    def test_prefix_consistency(self):
        rng = np.random.default_rng(5)
        idx = build_index(_descs(rng.normal(size=(40, 7))))
        q = GlobalDescriptor("q", rng.normal(size=7))
        full = query_top_k(idx, q, RetrievalConfig(top_k=40))
        small = query_top_k(idx, q, RetrievalConfig(top_k=7))
        assert full[:7] == small

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        idx = build_index(_descs(rng.normal(size=(30, 9))))
        q = rng.normal(size=9)
        a = query_top_k(idx, GlobalDescriptor("q", q), RetrievalConfig(top_k=30))
        b = query_top_k(idx, GlobalDescriptor("q", 17.5 * q), RetrievalConfig(top_k=30))
        assert [i for i, _ in a] == [i for i, _ in b]

    def test_k_clamped_to_size(self):
        rng = np.random.default_rng(7)
        idx = build_index(_descs(rng.normal(size=(5, 4))))
        hits = query_top_k(idx, GlobalDescriptor("q", rng.normal(size=4)), RetrievalConfig(top_k=30))
        assert len(hits) == 5

    def test_dimension_mismatch_rejected(self):
        idx = build_index([GlobalDescriptor("a", np.ones(4))])
        with pytest.raises(ValueError, match="dimension"):
            query_top_k(idx, GlobalDescriptor("q", np.ones(5)), RetrievalConfig(top_k=1))

    def test_zero_norm_query_rejected(self):
        idx = build_index([GlobalDescriptor("a", np.ones(4))])
        with pytest.raises(ValueError, match="zero-norm"):
            query_top_k(idx, GlobalDescriptor("q", np.zeros(4)), RetrievalConfig(top_k=1))

    def test_tie_breaks_by_id(self):
        v = np.array([1.0, 0.0])
        idx = build_index([GlobalDescriptor("b", v), GlobalDescriptor("a", v.copy())])
        hits = query_top_k(idx, GlobalDescriptor("q", v), RetrievalConfig(top_k=2))
        assert [i for i, _ in hits] == ["a", "b"]
