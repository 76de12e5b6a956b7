import mpmath
import numpy as np
import pytest

from splinemask.objective import (
    ResistModel,
    objective_value,
    print_and_epe,
    rasterize_target,
    sigmoid,
    sigmoid_derivative,
)
from splinemask.optics import ImageGrid


def test_sigmoid_midpoint_and_value():
    model = ResistModel(90.0, 0.3)
    assert sigmoid(0.3, model) == pytest.approx(0.5, abs=1e-15)
    # 1 / (1 + e^-4.5), frozen from direct scalar evaluation
    assert sigmoid(0.35, model) == pytest.approx(0.9890130573694068, abs=1e-12)


def test_sigmoid_saturates_without_overflow():
    model = ResistModel(90.0, 0.3)
    assert sigmoid(1e6, model) == 1.0
    assert sigmoid(-1e6, model) == 0.0
    assert np.isfinite(sigmoid(np.array([-1e300, 0.0, 1e300]), model)).all()


def test_sigmoid_and_its_derivative_match_mpmath_on_both_tails():
    # z = a (x - tr) over |z| <= 700, with 0, both against the z the functions form;
    # measured at most 1.9e-16 and 3.3e-16 relative
    eps = np.finfo(float).eps
    model = ResistModel(90.0, 0.3)
    x = np.concatenate([model.threshold + np.linspace(-700.0, 700.0, 2801) / model.steepness, [model.threshold]])
    t = (model.threshold - x) * model.steepness  # -z, as sigmoid forms it
    z = model.steepness * (x - model.threshold)
    with mpmath.workdps(40):
        want = [1 / (1 + mpmath.exp(mpmath.mpf(v))) for v in t]
        slope = [model.steepness / ((1 + mpmath.exp(-mpmath.mpf(v))) * (1 + mpmath.exp(mpmath.mpf(v))))
                 for v in z]
        assert max(abs(mpmath.mpf(g) / w - 1) for g, w in zip(sigmoid(x, model).tolist(), want)) <= 2 * eps
        assert max(abs(mpmath.mpf(g) / w - 1)
                   for g, w in zip(sigmoid_derivative(x, model).tolist(), slope)) <= 4 * eps
    assert sigmoid(model.threshold, model) == 0.5
    # past z = -709.78 exp(-z) overflows, quietly, and the value rounds to 0
    assert sigmoid(np.array([-1e4, -np.inf, 1e4, np.inf]), model).tolist() == [0.0, 0.0, 1.0, 1.0]
    assert sigmoid_derivative(np.array([-1e4, -np.inf, 1e4, np.inf]), model).tolist() == [0.0] * 4


def test_sigmoid_gives_the_same_bits_for_floats_0d_arrays_and_arrays():
    # one array path: a scalar comes back as a 0-d array, bit for bit the
    # element of an array, out to both saturated tails, and no input is
    # written over
    model = ResistModel(90.0, 0.3)
    xs = [-np.inf, -1e300, -1e4, -1.0, 0.0, 0.25, 0.3, 0.35, 1.0, 1e4, 1e300, np.inf]
    array = np.array(xs)
    stacked = sigmoid(array, model)
    assert array.tolist() == xs
    for x, want in zip(xs, stacked):
        zero_d = np.array(x)
        for arg in (x, np.float64(x), zero_d):
            got = sigmoid(arg, model)
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert got.tobytes() == want.tobytes()
        assert zero_d.tolist() == x


def test_sigmoid_monotone():
    model = ResistModel(90.0, 0.3)
    xs = np.linspace(-1, 2, 400)
    assert (np.diff(sigmoid(xs, model)) >= 0).all()
    near = np.linspace(0.1, 0.5, 100)  # strictly increasing where not saturated
    assert (np.diff(sigmoid(near, model)) > 0).all()


def test_sigmoid_derivative_peak_and_symmetry():
    model = ResistModel(90.0, 0.3)
    assert sigmoid_derivative(0.3, model) == pytest.approx(90.0 / 4.0, abs=1e-12)
    for delta in (0.01, 0.05, 0.2):
        assert sigmoid_derivative(0.3 + delta, model) == pytest.approx(
            sigmoid_derivative(0.3 - delta, model), rel=1e-12)


def test_sigmoid_derivative_matches_fd():
    model = ResistModel(90.0, 0.3)
    rng = np.random.default_rng(17)
    h = 1e-6
    for x in rng.uniform(0.0, 0.6, 25):
        fd = (sigmoid(x + h, model) - sigmoid(x - h, model)) / (2 * h)
        assert sigmoid_derivative(x, model) == pytest.approx(fd, abs=1e-7)
        if abs(fd) > 1e-3:  # relative check only where FD is above its own noise
            assert sigmoid_derivative(x, model) == pytest.approx(fd, rel=1e-6)


def test_rasterize_full_and_empty():
    grid = ImageGrid(6, 5, 1.0, (0.0, 0.0))
    big = [np.array([[-1.0, -1.0], [10.0, -1.0], [10.0, 10.0], [-1.0, 10.0]])]
    assert rasterize_target(big, grid).all()
    assert not rasterize_target([], grid).any()


def test_rasterize_half_rectangle():
    grid = ImageGrid(10, 4, 1.0, (0.0, 0.0))
    half = [np.array([[-0.5, -0.5], [4.5, -0.5], [4.5, 3.5], [-0.5, 3.5]])]
    raster = rasterize_target(half, grid)
    assert raster[:5].all()
    assert not raster[5:].any()


def test_rasterize_rejects_degenerate():
    grid = ImageGrid(4, 4, 1.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        rasterize_target([np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])], grid)


def test_objective_saturated_match_is_zero():
    model = ResistModel(90.0, 0.3)
    grid = ImageGrid(8, 8, 1.0, (0.0, 0.0))
    target = np.zeros((8, 8), dtype=np.uint8)
    target[2:6, 2:6] = 1
    intensity = np.where(target == 1, 0.7, 0.0)  # at least 0.3 away from tr on both sides
    assert objective_value(intensity, target, model, grid) < 1e-10


def test_objective_all_wrong_counts_pixels():
    model = ResistModel(90.0, 0.3)
    grid = ImageGrid(10, 10, 1.0, (0.0, 0.0))
    target = np.ones((10, 10), dtype=np.uint8)
    j = objective_value(np.zeros((10, 10)), target, model, grid)
    assert j == pytest.approx(100.0, abs=1e-6)


def test_objective_matches_plain_summation_oracle(desk_square):
    cfg, problem, region = desk_square
    from splinemask.pipeline import evaluate
    evaluation = evaluate(problem, [region])
    intensity = evaluation.field.intensity_values
    a, tr = problem.model.steepness, problem.model.threshold
    total = 0.0
    for ix in range(problem.grid.nx):
        for iy in range(problem.grid.ny):
            s = 1.0 / (1.0 + np.exp(-a * (intensity[ix, iy] - tr)))
            total += (s - float(problem.target[ix, iy])) ** 2 * problem.grid.pixel_area
    assert evaluation.objective == pytest.approx(total, abs=1e-10)


def test_objective_scales_with_pixel_area():
    model = ResistModel(90.0, 0.3)
    rng = np.random.default_rng(3)
    intensity = rng.uniform(0, 1, (6, 6))
    target = (rng.uniform(size=(6, 6)) > 0.5).astype(np.uint8)
    g1 = ImageGrid(6, 6, 1.0, (0.0, 0.0))
    g2 = ImageGrid(6, 6, np.sqrt(2.0), (0.0, 0.0))
    j1 = objective_value(intensity, target, model, g1)
    j2 = objective_value(intensity, target, model, g2)
    assert j2 == pytest.approx(2.0 * j1, rel=1e-12)


def test_objective_monotone_in_intensity():
    model = ResistModel(90.0, 0.3)
    grid = ImageGrid(4, 4, 1.0, (0.0, 0.0))
    target = np.zeros((4, 4), dtype=np.uint8)
    target[1, 1] = 1
    intensity = np.full((4, 4), 0.2)
    j_before = objective_value(intensity, target, model, grid)
    bumped = intensity.copy()
    bumped[1, 1] += 0.05  # raise where target is bright
    assert objective_value(bumped, target, model, grid) <= j_before
    lowered = intensity.copy()
    lowered[0, 0] -= 0.05  # lower where target is dark
    assert objective_value(lowered, target, model, grid) <= j_before


def test_objective_rejects_shape_mismatch():
    model = ResistModel()
    grid = ImageGrid(4, 4, 1.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        objective_value(np.zeros((3, 4)), np.zeros((4, 4)), model, grid)


def test_print_and_epe_counts():
    model = ResistModel(90.0, 0.3)
    target = np.zeros((5, 5), dtype=np.uint8)
    target[1:4, 1:4] = 1
    intensity = np.where(target == 1, 0.9, 0.0)
    report = print_and_epe(intensity, target, model)
    assert report.epe_count == 0
    flipped = print_and_epe(np.where(target == 1, 0.0, 0.9), target, model)
    assert flipped.epe_count == 25
    one_off = intensity.copy()
    one_off[0, 0] = 0.9
    assert print_and_epe(one_off, target, model).epe_count == 1
