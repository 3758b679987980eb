import numpy as np
import pytest

from uwit import (
    NotADistribution,
    ProbVec,
    majorized_by,
    make_probvec,
    point_mass,
    random_relabel,
    sort_desc,
    tensor,
    uniform,
)
from uwit.probvec import majorization_excess


def random_dist(rng, d):
    v = rng.exponential(size=d)
    return ProbVec(v / v.sum())


class TestConstruction:
    def test_valid(self):
        p = make_probvec((0.5, 0.5))
        assert np.allclose(p.values, [0.5, 0.5])

    def test_point_mass(self):
        p = make_probvec((1.0,))
        assert p.dim == 1 and p[0] == 1.0

    def test_bad_sum(self):
        with pytest.raises(NotADistribution):
            make_probvec((0.3, 0.3, 0.5))

    def test_clamps_tiny_negative(self):
        p = make_probvec((1.0, -1e-13))
        assert p[1] == 0.0 and abs(p.values.sum() - 1.0) < 1e-15

    def test_rejects_large_negative(self):
        with pytest.raises(NotADistribution):
            make_probvec((1.001, -1e-3))

    def test_rejects_empty(self):
        with pytest.raises(NotADistribution):
            make_probvec(())

    def test_rejects_non_numeric(self):
        with pytest.raises(NotADistribution):
            make_probvec(("half", "half"))


class TestSortAndTensor:
    def test_sort(self):
        assert np.allclose(sort_desc(make_probvec((0.2, 0.5, 0.3))).values, [0.5, 0.3, 0.2])

    def test_sort_already_sorted(self):
        assert np.allclose(sort_desc(make_probvec((1.0, 0.0))).values, [1.0, 0.0])

    def test_sort_uniform(self):
        assert np.allclose(sort_desc(uniform(4)).values, [0.25] * 4)

    def test_tensor(self):
        t = tensor(make_probvec((0.5, 0.5)), make_probvec((1.0, 0.0)))
        assert np.allclose(t.values, [0.5, 0.0, 0.5, 0.0])

    def test_tensor_identity(self):
        q = make_probvec((0.3, 0.7))
        assert np.allclose(tensor(make_probvec((1.0,)), q).values, q.values)

    def test_tensor_uniform(self):
        t = tensor(make_probvec((0.5, 0.5)), make_probvec((0.5, 0.5)))
        assert np.allclose(t.values, [0.25] * 4)

    def test_tensor_sorted_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, q = random_dist(rng, 3), random_dist(rng, 4)
            assert np.allclose(
                sort_desc(tensor(p, q)).values, sort_desc(tensor(q, p)).values
            )


class TestMajorization:
    def test_uniform_below_point(self):
        assert majorized_by(make_probvec((0.5, 0.5)), make_probvec((1.0, 0.0)))
        assert not majorized_by(make_probvec((1.0, 0.0)), make_probvec((0.5, 0.5)))

    def test_zero_padding(self):
        assert majorized_by(make_probvec((0.5, 0.5)), make_probvec((1.0,)))
        assert majorized_by(make_probvec((1.0,)), make_probvec((1.0, 0.0)))

    def test_extremes(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = random_dist(rng, int(rng.integers(1, 7)))
            assert majorized_by(uniform(p.dim), p)
            assert majorized_by(p, point_mass(p.dim))

    def test_antisymmetry_up_to_sorting(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = random_dist(rng, 4)
            q = ProbVec(rng.permutation(p.values))
            assert majorized_by(p, q) and majorized_by(q, p)
            assert np.allclose(sort_desc(p).values, sort_desc(q).values, atol=1e-9)

    def test_excess_sign(self):
        assert majorization_excess(make_probvec((1.0, 0.0)), make_probvec((0.5, 0.5))) > 0
        assert majorization_excess(make_probvec((0.5, 0.5)), make_probvec((1.0, 0.0))) <= 0


class TestRandomRelabel:
    def test_full_mixing(self):
        q = random_relabel(make_probvec((1.0, 0.0)), {(0, 1): 0.5, (1, 0): 0.5})
        assert np.allclose(q.values, [0.5, 0.5])

    def test_identity(self):
        p = make_probvec((0.7, 0.3))
        assert np.allclose(random_relabel(p, {(0, 1): 1.0}).values, p.values)

    def test_half_swap(self):
        # 0.5 * (0.7, 0.3) + 0.5 * (0.3, 0.7) computed by hand
        q = random_relabel(make_probvec((0.7, 0.3)), {(0, 1): 0.5, (1, 0): 0.5})
        assert np.allclose(q.values, [0.5, 0.5])

    def test_invalid_weights(self):
        p = make_probvec((0.7, 0.3))
        with pytest.raises(NotADistribution):
            random_relabel(p, {(0, 1): 0.4})
        with pytest.raises(NotADistribution):
            random_relabel(p, {(0, 0): 1.0})
        with pytest.raises(NotADistribution):
            random_relabel(p, {})

    def test_relabeled_is_majorized(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            p = random_dist(rng, d)
            n = int(rng.integers(1, 4))
            w = rng.exponential(size=n)
            w = w / w.sum()
            weights = {}
            for x in w:
                perm = tuple(int(i) for i in rng.permutation(d))
                weights[perm] = weights.get(perm, 0.0) + float(x)
            assert majorized_by(random_relabel(p, weights), p)

    def test_tensor_monotone_in_majorization(self):
        # mixing one factor can only loosen the tensor's partial sums
        rng = np.random.default_rng(14)
        for _ in range(100):
            p = random_dist(rng, 3)
            q = random_dist(rng, 3)
            mixed = random_relabel(p, {(0, 1, 2): 0.6, (2, 0, 1): 0.4})
            assert majorized_by(tensor(mixed, q), tensor(p, q))
