import numpy as np
import pytest

from splinemask.spline import (
    ExtendedPartition,
    KnotVector,
    PeriodicSplineRegion,
    basis_eval,
    basis_value,
    build_collocation,
    evaluate_curve,
    extend_partition,
    periodic_basis_eval,
    sample_boundary,
    uniform_knots,
)


# -- independent oracle: bottom-up Cox-de Boor table -----------------------------

def oracle_basis(knots, degree, index, x):
    """Basis value by filling the degree table iteratively (independent of the
    library's recursive evaluation)."""
    knots = np.asarray(knots, dtype=float)
    nfun = len(knots) - 1
    table = np.zeros(nfun)
    for i in range(nfun):
        if knots[i] <= x < knots[i + 1]:
            table[i] = 1.0
        elif x == knots[-1] and knots[i] < knots[i + 1] == knots[-1]:
            table[i] = 1.0
    for p in range(1, degree + 1):
        new = np.zeros(nfun - p)
        for i in range(nfun - p):
            acc = 0.0
            if knots[i + p] > knots[i]:
                acc += (x - knots[i]) / (knots[i + p] - knots[i]) * table[i]
            if knots[i + p + 1] > knots[i + 1]:
                acc += (knots[i + p + 1] - x) / (knots[i + p + 1] - knots[i + 1]) * table[i + 1]
            new[i] = acc
        table = new
    return table[index]


def oracle_periodic_curve(controls, degree, t):
    """Closed-curve point by summing shifted cardinal bumps over the unwrapped
    extension: control k is active on spans k-degree .. k (mod n)."""
    controls = np.asarray(controls, dtype=float)
    n = len(controls)
    h = 1.0 / n
    ext_knots = np.arange(-degree, n + degree + 1) * h  # plain uniform grid around [0, 1]
    point = np.zeros(2)
    for j in range(n + degree):  # plain basis functions touching [0, 1]
        v = oracle_basis(ext_knots, degree, j, t)
        if v:
            point += v * controls[(j - degree) % n]
    return point


def test_degree0_is_indicator():
    knots = np.array([0.0, 1.0, 2.0])
    kv = KnotVector(knots, 0)
    assert basis_eval(kv, 0, 0.5) == 1.0
    assert basis_eval(kv, 1, 0.5) == 0.0
    assert basis_eval(kv, 0, 1.5) == 0.0
    assert basis_eval(kv, 1, 1.5) == 1.0


def test_cubic_on_five_uniform_knots():
    # values of the single cubic bump on {0,1,2,3,4}, from the independent oracle
    knots = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    assert basis_value(knots, 3, 0, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert basis_value(knots, 3, 0, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    for x in np.linspace(0, 4, 17):
        assert basis_value(knots, 3, 0, x) == pytest.approx(
            oracle_basis(knots, 3, 0, x), abs=1e-14)


def test_partition_of_unity_on_natural_domain():
    kv = uniform_knots(8, 3)
    rng = np.random.default_rng(7)
    lo, hi = kv.knots[kv.degree], kv.knots[kv.n]
    for x in rng.uniform(lo, hi, 200):
        total = sum(basis_eval(kv, k, x) for k in range(kv.n))
        assert abs(total - 1.0) < 1e-12


def test_basis_eval_validates_inputs():
    kv = uniform_knots(5, 2)
    with pytest.raises(IndexError):
        basis_eval(kv, 5, 0.5)
    with pytest.raises(ValueError):
        basis_eval(kv, 0, 1.5)


def test_extend_partition_linear():
    kv = KnotVector(np.array([0.0, 0.25, 0.5, 0.75, 1.0]), 1)
    ext = extend_partition(kv)
    np.testing.assert_allclose(ext.knots, [-0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25])


def test_extend_partition_degree0_unchanged():
    kv = KnotVector(np.array([0.0, 1.0]), 0)
    ext = extend_partition(kv)
    np.testing.assert_array_equal(ext.knots, kv.knots)


def test_extend_partition_uniform_cubic():
    # 11 uniform knots, p = 3: 17 extended knots with spacing preserved
    kv = KnotVector(np.linspace(0, 1, 11), 3)
    ext = extend_partition(kv)
    assert len(ext.knots) == 17
    np.testing.assert_allclose(np.diff(ext.knots), 0.1, atol=1e-15)
    assert ext.knots[0] == pytest.approx(-0.3)
    assert ext.knots[-1] == pytest.approx(1.3)


def test_extend_partition_shift_identities():
    kv = uniform_knots(6, 3)
    ext = extend_partition(kv)
    n, p = kv.n, kv.degree
    L = ext.period
    full = ext.knots
    for j in range(p):  # prepended knots equal their period image
        assert full[j] == pytest.approx(full[j + n + p] - L, abs=1e-15)
        assert full[-1 - j] == pytest.approx(full[-1 - j - n - p] + L, abs=1e-15)


def test_periodic_partition_of_unity():
    kv = uniform_knots(8, 3)
    ext = extend_partition(kv)
    count = kv.n + kv.degree
    rng = np.random.default_rng(3)
    for x in np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 1000)]):
        total = sum(periodic_basis_eval(ext, k, x) for k in range(count))
        assert abs(total - 1.0) < 1e-12
        vals = [periodic_basis_eval(ext, k, x) for k in range(count)]
        assert min(vals) >= 0.0
        assert sum(v > 0 for v in vals) <= kv.degree + 1


def test_periodic_basis_wraps_at_seam():
    kv = uniform_knots(8, 3)
    ext = extend_partition(kv)
    for k in range(kv.n + kv.degree):
        assert periodic_basis_eval(ext, k, 0.0) == pytest.approx(
            periodic_basis_eval(ext, k, 1.0), abs=1e-13)


def test_periodic_basis_matches_cardinal_oracle():
    # uniform knots, p = 3, 8 periodic functions: compare against the cardinal
    # cubic evaluated on the unwrapped extension
    kv = uniform_knots(5, 3)  # 5 + 3 = 8 periodic basis functions
    ext = extend_partition(kv)
    n, p = kv.n, kv.degree
    for x in np.linspace(0, 1, 23):
        for k in range(n + p):
            expected = oracle_basis(ext.knots, p, k + p, x)
            if k >= n:
                expected += oracle_basis(ext.knots, p, k - n, x)
            assert periodic_basis_eval(ext, k, x) == pytest.approx(expected, abs=1e-14)


def test_collocation_rows_sum_to_one():
    region = PeriodicSplineRegion(np.random.default_rng(0).normal(size=(9, 2)), 18)
    colloc = build_collocation(region)
    np.testing.assert_allclose(colloc.sum(axis=1), 1.0, atol=1e-12)
    assert colloc.min() >= 0.0
    assert colloc.max() <= 1.0
    assert (colloc > 0).sum(axis=1).max() <= region.degree + 1


def uncached_collocation(region):
    """Collocation built entry by entry from the periodic basis, bypassing the cache."""
    ext = extend_partition(region.knot_vector())
    return np.array([[periodic_basis_eval(ext, k, float(t)) for k in range(region.n)]
                     for t in region.params()])


def test_collocation_cached_per_region_shape():
    rng = np.random.default_rng(5)
    region = PeriodicSplineRegion(rng.normal(size=(9, 2)), 18)
    colloc = build_collocation(region)
    moved = build_collocation(region.with_controls(rng.normal(size=(9, 2))))
    assert moved is colloc
    assert not colloc.flags.writeable
    with pytest.raises(ValueError):
        colloc[0, 0] = 2.0
    assert np.array_equal(colloc, uncached_collocation(region))

    denser = PeriodicSplineRegion(region.controls, 27)
    other = build_collocation(denser)
    assert other is not colloc and other.shape == (27, 9)
    assert np.array_equal(other, uncached_collocation(denser))
    assert build_collocation(PeriodicSplineRegion(rng.normal(size=(9, 2)), 27)) is other
    quadratic = PeriodicSplineRegion(region.controls, 18, degree=2)
    assert np.array_equal(build_collocation(quadratic), uncached_collocation(quadratic))


def test_collocation_constant_controls_collapse():
    c = np.array([2.5, -1.25])
    region = PeriodicSplineRegion(np.tile(c, (8, 1)), 16)
    samples = sample_boundary(region)
    np.testing.assert_allclose(samples, np.tile(c, (16, 1)), atol=1e-13)


def test_collocation_matches_direct_curve_evaluation():
    rng = np.random.default_rng(11)
    theta = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    controls = np.stack([np.cos(theta), np.sin(theta)], axis=1) + rng.normal(0, 0.05, (8, 2))
    region = PeriodicSplineRegion(controls, 16)
    samples = sample_boundary(region)
    direct = np.array([oracle_periodic_curve(controls, 3, t) for t in region.params()])
    np.testing.assert_allclose(samples, direct, atol=1e-12)


def test_square_loop_samples_match_oracle():
    from splinemask.geometry import polygon_perimeter_points
    square = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
    controls = polygon_perimeter_points(square, 12)
    region = PeriodicSplineRegion(controls, 24)
    samples = sample_boundary(region)
    direct = np.array([oracle_periodic_curve(controls, 3, t) for t in region.params()])
    np.testing.assert_allclose(samples, direct, atol=1e-12)


def test_curve_is_closed():
    rng = np.random.default_rng(5)
    controls = rng.normal(size=(10, 2)) * 3.0
    region = PeriodicSplineRegion(controls, 20)
    start = evaluate_curve(region, 0.0)
    end = evaluate_curve(region, 1.0)
    np.testing.assert_allclose(start, end, atol=1e-12)


def test_sample_boundary_translation_equivariant():
    rng = np.random.default_rng(9)
    controls = rng.normal(size=(8, 2))
    region = PeriodicSplineRegion(controls, 16)
    shift = np.array([5.0, -3.0])
    shifted = sample_boundary(region.with_controls(controls + shift))
    np.testing.assert_allclose(shifted, sample_boundary(region) + shift, atol=1e-10)


def test_sample_boundary_affine_equivariant():
    rng = np.random.default_rng(13)
    controls = rng.normal(size=(9, 2))
    region = PeriodicSplineRegion(controls, 18)
    amat = np.array([[1.3, -0.4], [0.2, 0.8]])
    v = np.array([0.7, -2.0])
    mapped = sample_boundary(region.with_controls(controls @ amat.T + v))
    np.testing.assert_allclose(mapped, sample_boundary(region) @ amat.T + v, atol=1e-10)


def test_samples_inside_control_circle():
    theta = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    r = 2.0
    controls = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    samples = sample_boundary(PeriodicSplineRegion(controls, 24))
    assert np.hypot(samples[:, 0], samples[:, 1]).max() <= r + 1e-12


def test_region_validation():
    with pytest.raises(ValueError):
        PeriodicSplineRegion(np.zeros((4, 2)), 8)  # fewer than degree + 2 controls
