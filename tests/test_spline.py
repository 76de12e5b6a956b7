import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from splinemask.spline import (
    SPAN_POINTS,
    PeriodicSplineRegion,
    build_collocation,
    curve_rule,
    evaluate_curve,
    periodic_basis,
    periodic_basis_slope,
    sample_boundary,
)


# -- independent oracle: bottom-up Cox-de Boor table, one parameter at a time ----

def oracle_basis(knots, degree, x):
    """All degree-`degree` basis values at x, filled iteratively with scalar loops."""
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
    return table


def oracle_periodic_basis(n, degree, x):
    """Periodic basis of n controls at x by summing shifted cardinal bumps over the
    unwrapped extension: the plain function starting at knot j/n, j = -degree .. n - 1,
    belongs to control j mod n."""
    ext_knots = np.arange(-degree, n + degree + 1) / n  # plain uniform grid around [0, 1]
    plain = oracle_basis(ext_knots, degree, x)  # the n + degree functions touching [0, 1]
    values = np.zeros(n)
    np.add.at(values, (np.arange(n + degree) - degree) % n, plain)
    return values


def oracle_periodic_curve(controls, degree, t):
    """Closed-curve point as the oracle periodic basis applied to the controls."""
    controls = np.asarray(controls, dtype=float)
    return oracle_periodic_basis(len(controls), degree, t) @ controls


def test_cubic_on_five_uniform_knots():
    # the cardinal cubic bump spans five uniform knots and takes 1/6, 2/3, 1/6 at
    # the inner three; sampling at the knots (num_samples == n) reads them off,
    # the bump of control c starting at knot c
    n = 8
    colloc = build_collocation(PeriodicSplineRegion(np.zeros((n, 2)), n))
    for i, row in enumerate(colloc):
        expected = np.zeros(n)
        expected[[(i - 3) % n, (i - 2) % n, (i - 1) % n]] = [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0]
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-15)


def test_evaluate_curve_validates_parameters():
    region = PeriodicSplineRegion(np.random.default_rng(2).normal(size=(7, 2)), 14, degree=2)
    for bad in (1.5, -0.25, np.nan, [0.5, 1.0 + 1e-12]):
        with pytest.raises(ValueError):
            evaluate_curve(region, bad)


def test_periodic_partition_of_unity():
    n, p = 11, 3
    rng = np.random.default_rng(3)
    values = periodic_basis(n, p, np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 1000)]))
    assert values.shape == (1002, n)
    np.testing.assert_allclose(values.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert values.min() >= 0.0
    assert (values > 0).sum(axis=1).max() <= p + 1


def test_periodic_basis_wraps_at_seam():
    start, end = periodic_basis(11, 3, np.array([0.0, 1.0]))
    np.testing.assert_allclose(start, end, rtol=0, atol=1e-13)


def test_periodic_basis_matches_cardinal_oracle():
    # uniform knots, p = 3, 8 periodic functions: compare against the cardinal
    # cubic evaluated on the unwrapped extension
    n, p = 8, 3
    x = np.linspace(0, 1, 23)
    expected = np.array([oracle_periodic_basis(n, p, xi) for xi in x])
    np.testing.assert_allclose(periodic_basis(n, p, x), expected, rtol=0, atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_periodic_basis_matches_oracle_for_any_shape(data):
    degree = data.draw(st.integers(1, 5), label="degree")
    n = data.draw(st.integers(degree + 2, 40), label="n")
    m = data.draw(st.integers(3, 120), label="m")
    t = np.append(np.arange(m) / m, 1.0)
    values = periodic_basis(n, degree, t)
    assert values.shape == (m + 1, n)
    expected = np.array([oracle_periodic_basis(n, degree, ti) for ti in t])
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-14)
    np.testing.assert_allclose(values.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert values.min() >= 0.0
    assert (values > 0).sum(axis=1).max() <= degree + 1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_slope_basis_integrates_to_the_basis_and_closes_the_curve(data):
    degree = data.draw(st.integers(1, 5), label="degree")
    n = data.draw(st.integers(degree + 2, 40), label="n")
    a, b = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), label="[a, b]"))
    # between knots the slopes are polynomials of degree p - 1, which a Gauss
    # rule of SPAN_POINTS points integrates exactly on each piece; the worst
    # rounding over 35,000 random draws was 9.1e-15, at degree 1 and n = 40
    ends = np.unique(np.concatenate([[a, b], np.arange(1, n) / n]).clip(a, b))
    nodes, weights = leggauss(SPAN_POINTS)
    lo, hi = ends[:-1, None], ends[1:, None]
    t = (lo + 0.5 * (nodes + 1.0) * (hi - lo)).ravel()
    w = (0.5 * weights * (hi - lo)).ravel()
    integral = w @ periodic_basis_slope(n, degree, t)
    change = np.diff(periodic_basis(n, degree, np.array([a, b])), axis=0)[0]
    np.testing.assert_allclose(integral, change, rtol=0, atol=1e-14)
    # and so sum_q w_q r'_q, the integral of r' over the whole closed curve,
    # vanishes up to the rounding of its terms: within 1.01e-15 of
    # sum_q w_q |r'_q| over 20,000 random draws
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    controls = np.random.default_rng(seed).normal(size=(n, 2))
    rule = curve_rule(PeriodicSplineRegion(controls, 3, degree))
    tangents = rule.slope @ controls
    assert (np.abs(rule.weights @ tangents) <= 4e-15 * (rule.weights @ np.abs(tangents))).all()


def test_collocation_rows_sum_to_one():
    region = PeriodicSplineRegion(np.random.default_rng(0).normal(size=(9, 2)), 18)
    colloc = build_collocation(region)
    np.testing.assert_allclose(colloc.sum(axis=1), 1.0, atol=1e-12)
    assert colloc.min() >= 0.0
    assert colloc.max() <= 1.0
    assert (colloc > 0).sum(axis=1).max() <= region.degree + 1


def uncached_collocation(region):
    """Collocation built straight from the periodic basis, bypassing the cache."""
    return periodic_basis(region.n, region.degree, region.params())


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
