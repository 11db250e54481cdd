import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidcap.errors import DataError, DimensionError, ParameterError
from vidcap.features import (
    DESCRIPTOR_CHANNELS,
    REGION_COUNT,
    Codebook,
    RegionActivations,
    bof_encode,
    category_onehot,
    kmeans,
    mean_pool,
    pyramid_pool,
)
from vidcap.harness import FeatureStore
from vidcap.numerics import make_rng


class TestMeanPool:
    def test_hand_case(self):
        assert np.allclose(mean_pool([np.array([1.0, 3.0]), np.array([3.0, 5.0])]), [2.0, 4.0])

    def test_single_vector_identity(self):
        v = np.array([7.0, -1.0, 2.5])
        assert np.allclose(mean_pool([v]), v)

    def test_constant_idempotent(self):
        v = np.array([0.5, 1.5])
        assert np.allclose(mean_pool([v] * 100), v)

    def test_empty_raises(self):
        with pytest.raises(DataError):
            mean_pool([])

    def test_mixed_dims(self):
        with pytest.raises(DimensionError):
            mean_pool([np.zeros(2), np.zeros(3)])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_permutation_invariant(self, seed):
        rng = make_rng(seed)
        vecs = [rng.normal(size=4) for _ in range(6)]
        perm = rng.permutation(6)
        assert np.allclose(mean_pool(vecs), mean_pool([vecs[i] for i in perm]))


def _frame(rng, d=8):
    return RegionActivations(scale1=rng.normal(size=d),
                             regions=rng.normal(size=(REGION_COUNT, d)))


class TestPyramidPool:
    def test_constant_regions(self):
        v = np.arange(5.0)
        frame = RegionActivations(scale1=v, regions=np.tile(v, (REGION_COUNT, 1)))
        for combo in ("avg-avg", "max-avg", "max-max"):
            assert np.allclose(pyramid_pool([frame], combo), np.concatenate([v, v]))

    def test_max_semantics(self):
        rng = make_rng(0)
        regions = rng.normal(size=(REGION_COUNT, 4))
        regions[7] = 100.0 + np.arange(4)  # dominates coordinate-wise
        frame = RegionActivations(scale1=np.zeros(4), regions=regions)
        out = pyramid_pool([frame], "max-avg")
        assert np.allclose(out[4:], regions[7])

    def test_matches_bruteforce(self):
        rng = make_rng(3)
        frames = [_frame(rng), _frame(rng)]
        for combo in ("avg-avg", "max-avg", "max-max"):
            r_op, f_op = combo.split("-")
            per = []
            for fr in frames:
                pooled = fr.regions.max(0) if r_op == "max" else fr.regions.mean(0)
                per.append(np.concatenate([fr.scale1, pooled]))
            per = np.stack(per)
            expected = per.max(0) if f_op == "max" else per.mean(0)
            assert np.allclose(pyramid_pool(frames, combo), expected)

    def test_output_dim_doubles(self):
        rng = make_rng(1)
        assert pyramid_pool([_frame(rng, d=16)]).shape == (32,)

    def test_region_count_enforced(self):
        with pytest.raises(DimensionError):
            RegionActivations(scale1=np.zeros(4), regions=np.zeros((25, 4)))

    def test_bad_combo(self):
        rng = make_rng(2)
        with pytest.raises(ParameterError):
            pyramid_pool([_frame(rng)], "sum-avg")

    def test_empty_frames(self):
        with pytest.raises(DataError):
            pyramid_pool([])


class TestKmeans:
    def test_n_equals_k_zero_error(self):
        pts = make_rng(0).normal(size=(6, 3))
        _, _, history = kmeans(pts, 6, make_rng(1))
        assert history[-1] == pytest.approx(0.0, abs=1e-20)

    def test_two_blobs_recover_means(self):
        rng = make_rng(5)
        a = rng.normal(0.0, 0.01, size=(40, 2))
        b = rng.normal(10.0, 0.01, size=(40, 2))
        pts = np.vstack([a, b])
        centroids, _, _ = kmeans(pts, 2, make_rng(6))
        got = sorted(centroids.tolist())
        assert np.allclose(got[0], a.mean(axis=0), atol=1e-6)
        assert np.allclose(got[1], b.mean(axis=0), atol=1e-6)

    def test_deterministic(self):
        pts = make_rng(7).normal(size=(50, 4))
        c1, _, _ = kmeans(pts, 5, make_rng(8))
        c2, _, _ = kmeans(pts, 5, make_rng(8))
        assert np.array_equal(c1, c2)

    def test_objective_monotone(self):
        pts = make_rng(9).normal(size=(120, 3))
        _, _, history = kmeans(pts, 8, make_rng(10))
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_too_few_samples(self):
        with pytest.raises(ParameterError):
            kmeans(np.zeros((3, 2)), 4, make_rng(0))

    @pytest.mark.parametrize("n_distinct, k", [(1, 3), (3, 5), (4, 7)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fewer_distinct_points_than_k(self, n_distinct, k, seed):
        """k-means++ runs out of mass (every remaining point is a chosen
        duplicate), and the duplicate centroids start empty and are reseeded.
        The objective starts at 0; the mean of equal points can round an ulp
        off them, so it may rise by rounding, never by more."""
        rng = make_rng(seed)
        distinct = rng.normal(size=(n_distinct, 3))
        pts = distinct[rng.permutation(np.arange(3 * k) % n_distinct)]
        centroids, assignments, history = kmeans(pts, k, make_rng(seed + 10))
        assert history[0] == 0.0
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
        assert np.isfinite(centroids).all()
        assert assignments.shape == (len(pts),)
        assert ((0 <= assignments) & (assignments < k)).all()

    def test_stops_once_the_objective_stops_falling(self):
        """Nine copies of one point: the mean of the copies rounds an ulp off
        them, so tied assignments would flip between that centroid and an
        exact reseeded one for all max_iters iterations."""
        pts = np.tile(make_rng(1).normal(size=3), (9, 1))
        centroids, assignments, history = kmeans(pts, 3, make_rng(1))
        assert history == [0.0, 0.0]
        assert np.allclose(centroids[assignments], pts, rtol=0.0, atol=1e-15)


def _books(k=5, d=3):
    rng = make_rng(11)
    return {ch: Codebook(channel=ch, centroids=rng.normal(size=(k, d)))
            for ch in DESCRIPTOR_CHANNELS}


class TestBofEncode:
    def test_output_dim_is_5k(self):
        books = _books(k=5)
        desc = {ch: make_rng(1).normal(size=(7, 3)) for ch in DESCRIPTOR_CHANNELS}
        assert bof_encode(desc, books).shape == (25,)

    def test_dim_5000_at_k_1000(self):
        rng = make_rng(2)
        books = {ch: Codebook(channel=ch, centroids=rng.normal(size=(1000, 4)))
                 for ch in DESCRIPTOR_CHANNELS}
        desc = {ch: rng.normal(size=(3, 4)) for ch in DESCRIPTOR_CHANNELS}
        assert bof_encode(desc, books).shape == (5000,)

    def test_all_nearest_first_centroid(self):
        books = _books(k=4)
        desc = {ch: np.tile(books[ch].centroids[0], (6, 1)) for ch in DESCRIPTOR_CHANNELS}
        out = bof_encode(desc, books)
        for c in range(5):
            assert np.allclose(out[c * 4 : (c + 1) * 4], [1.0, 0.0, 0.0, 0.0])

    def test_empty_channel_zero_subvector(self):
        books = _books(k=4)
        desc = {ch: make_rng(3).normal(size=(5, 3)) for ch in DESCRIPTOR_CHANNELS}
        desc["HOF"] = np.zeros((0, 3))
        out = bof_encode(desc, books)
        hof_slice = out[2 * 4 : 3 * 4]
        assert np.array_equal(hof_slice, np.zeros(4))

    def test_channel_subvectors_l1_normalized(self):
        books = _books(k=6)
        desc = {ch: make_rng(4).normal(size=(9, 3)) for ch in DESCRIPTOR_CHANNELS}
        out = bof_encode(desc, books)
        assert np.all(out >= 0)
        for c in range(5):
            assert out[c * 6 : (c + 1) * 6].sum() == pytest.approx(1.0)

    def test_missing_channel(self):
        books = _books()
        desc = {ch: np.zeros((2, 3)) for ch in DESCRIPTOR_CHANNELS if ch != "MBHy"}
        with pytest.raises(DataError, match="MBHy"):
            bof_encode(desc, books)

    def test_dim_mismatch(self):
        books = _books(d=3)
        desc = {ch: np.zeros((2, 9)) for ch in DESCRIPTOR_CHANNELS}
        with pytest.raises(DimensionError):
            bof_encode(desc, books)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_permutation_invariant(self, seed):
        rng = make_rng(seed)
        books = _books(k=4)
        desc = {ch: rng.normal(size=(8, 3)) for ch in DESCRIPTOR_CHANNELS}
        shuffled = {ch: d[rng.permutation(len(d))] for ch, d in desc.items()}
        assert np.array_equal(bof_encode(desc, books), bof_encode(shuffled, books))

    def test_tie_breaks_to_lowest_index(self):
        c = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        books = {ch: Codebook(channel=ch, centroids=c) for ch in DESCRIPTOR_CHANNELS}
        desc = {ch: np.array([[0.0, 0.0]]) for ch in DESCRIPTOR_CHANNELS}
        out = bof_encode(desc, books)
        # centroids 0 and 1 (and 2) are equidistant from the origin
        assert np.allclose(out[:3], [1.0, 0.0, 0.0])


class TestCategoryOnehot:
    def test_basic(self):
        v = category_onehot(3, 20)
        assert v.shape == (20,) and v[3] == 1.0 and v.sum() == 1.0

    def test_single_category(self):
        assert np.array_equal(category_onehot(0, 1), [1.0])

    def test_boundary_rejected(self):
        with pytest.raises(DataError):
            category_onehot(20, 20)


class TestConcatFeatures:
    """Features concatenate through FeatureStore's compound 'a+b' names."""

    def test_basic(self):
        store = FeatureStore()
        store.add("x", "v", [1.0, 2.0])
        store.add("y", "v", [3.0])
        assert np.array_equal(store.get("v", "y+x"), [3.0, 1.0, 2.0])

    def test_dimension_arithmetic(self):
        store = FeatureStore()
        store.add("gcnn", "v", np.ones(1024))
        store.add("categ", "v", category_onehot(3, 20))
        assert store.dim("gcnn+categ") == 1044
        assert store.get("v", "gcnn+categ").shape == (1044,)

    def test_single_identity(self):
        store = FeatureStore()
        store.add("solo", "v", [4.0, 5.0])
        assert np.array_equal(store.get("v", "solo"), [4.0, 5.0])

    def test_empty_rejected(self):
        store = FeatureStore()
        store.add("x", "v", [1.0])
        for name in ("", "x+"):
            with pytest.raises(DataError):
                store.get("v", name)


class TestCodebookFile:
    def test_round_trip(self, tmp_path):
        rng = make_rng(12)
        centroids, _, _ = kmeans(rng.normal(size=(40, 6)), 5, rng)
        book = Codebook("HOG", centroids)
        path = tmp_path / "hog.vcbk"
        book.save(path)
        loaded = Codebook.load(path)
        assert loaded.channel == "HOG"
        assert np.array_equal(loaded.centroids.astype(np.float32),
                              book.centroids.astype(np.float32))

    def test_bit_exact_second_save(self, tmp_path):
        rng = make_rng(13)
        book = Codebook(channel="HOF", centroids=rng.normal(size=(4, 3)))
        p1, p2 = tmp_path / "a.vcbk", tmp_path / "b.vcbk"
        book.save(p1)
        Codebook.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()
