import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j1

from splinemask import gradient, optics
from splinemask.gradient import amplitude_gradient
from splinemask.mesh import TriangleQuadrature, refine_mesh, triangulate_region
from splinemask.optics import (
    AmplitudeField,
    ImageGrid,
    SMALL_RHO,
    OpticalConfig,
    airy_kernel,
    bessel_j,
    forward_amplitude,
    psf,
)
from splinemask.pipeline import build_region_system, evaluate, gradient_of

from direct_sum import airy_kernel_radial_derivative, direct_amplitude_gradient, direct_forward_amplitude

J1_FIRST_ROOT = 3.8317059702075123  # frozen from the series-oracle bisection below


def oracle_j1_series(x: float, terms: int = 40) -> float:
    """Power series for J1, independent of the library's Bessel backend.

    Converges to machine precision for |x| <= 6, which covers the first root.
    """
    total = 0.0
    term = x / 2.0
    for k in range(terms):
        total += term
        term *= -(x * x / 4.0) / ((k + 1) * (k + 2))
    return total


def test_bessel_values_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(2, 0.0) == 0.0


def test_bessel_rejects_other_orders():
    with pytest.raises(ValueError):
        bessel_j(3, 1.0)


def test_frozen_root_agrees_with_series_oracle():
    # bisect the independent series around the frozen constant
    lo, hi = 3.5, 4.0
    assert oracle_j1_series(lo) > 0 > oracle_j1_series(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if oracle_j1_series(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - J1_FIRST_ROOT) < 1e-12


def test_bessel_j1_vanishes_at_first_root():
    assert abs(bessel_j(1, J1_FIRST_ROOT)) < 1e-8


def test_bessel_matches_series_oracle():
    for x in np.linspace(0.0, 6.0, 25):
        assert bessel_j(1, x) == pytest.approx(oracle_j1_series(x), abs=1e-13)


def test_bessel_recursion_identity_vs_finite_differences():
    h = 1e-6
    xs = np.linspace(0.0, 50.0, 1000)
    fd = (bessel_j(1, xs + h) - bessel_j(1, xs - h)) / (2 * h)
    identity = bessel_j(0, xs) - bessel_j(2, xs)
    assert np.abs(identity - 2 * fd).max() < 1e-7


def test_psf_peak_and_symmetry():
    assert psf(0.0, 0.0) == pytest.approx(np.pi, abs=1e-10)
    assert psf(0.3, -0.1) == psf(-0.3, -0.1)
    assert psf(0.3, -0.1) == pytest.approx(psf(-0.1, 0.3), abs=1e-15)


def test_psf_first_zero():
    rho0 = J1_FIRST_ROOT / (2 * np.pi)
    assert abs(psf(rho0, 0.0)) < 1e-8


def test_psf_series_handoff_continuous():
    eps = 1e-6
    below = airy_kernel(np.nextafter(eps, 0.0))
    above = airy_kernel(np.nextafter(eps, 1.0))
    assert abs(float(below) - float(above)) < 1e-10


def test_kernel_radial_derivative_matches_fd():
    h = 1e-7
    for rho in (0.05, 0.2, 0.61, 1.3, 4.0):
        fd = (airy_kernel(rho + h) - airy_kernel(rho - h)) / (2 * h)
        assert airy_kernel_radial_derivative(rho) == pytest.approx(float(fd), rel=1e-6, abs=1e-8)
    assert airy_kernel_radial_derivative(0.0) == 0.0


def mp_radial_derivative(rho: float) -> float:
    """dH/drho from 40-digit Bessel values; the Bessel form is exact in this precision."""
    with mpmath.workdps(40):
        r = mpmath.mpf(rho)
        if r == 0:
            return 0.0
        z = 2 * mpmath.pi * r
        return float((z * mpmath.besselj(0, z) - 2 * mpmath.besselj(1, z)) / (r * r))


def test_kernel_radial_derivative_matches_mpmath_down_to_the_peak():
    rhos = np.concatenate([[0.0], np.logspace(-9, -1, 161), np.linspace(0.1, 5.0, 491)])
    values = airy_kernel_radial_derivative(rhos)
    exact = np.array([mp_radial_derivative(r) for r in rhos])
    mixed = np.abs(values - exact) / np.maximum(1.0, np.abs(exact))
    assert mixed.max() <= 1e-12
    for rho, value in zip(rhos[::37], values[::37]):
        assert float(airy_kernel_radial_derivative(float(rho))) == value


def test_airy_kernel_bit_identical_to_masked_form():
    # the kernel patches its series into the Bessel quotient only where rho is
    # small; that must equal the whole-array np.where form bit for bit
    rng = np.random.default_rng(17)
    for scale in (1e-7, 1e-6, 1e-3, 1.0, 4.0):
        rho = np.abs(rng.normal(size=(64, 37))) * scale
        rho[rng.random(rho.shape) < 0.05] = 0.0
        safe = np.where(rho < SMALL_RHO, 1.0, rho)
        masked = np.where(rho < SMALL_RHO, np.pi - 0.5 * np.pi**3 * rho**2,
                          j1(2.0 * np.pi * safe) / safe)
        assert airy_kernel(rho).tobytes() == masked.tobytes()
    assert float(airy_kernel(0.0)) == np.pi


def test_normalize_examples():
    cfg = OpticalConfig(193.0, 0.93, -1.0)
    assert cfg.normalize_mask(0.0) == 0.0
    assert cfg.normalize_mask(1.0) == pytest.approx(0.93 / 193.0)
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(20, 2)) * 100
    np.testing.assert_allclose(cfg.denormalize_mask(cfg.normalize_mask(pts)), pts, atol=1e-12)
    np.testing.assert_allclose(cfg.denormalize_image(cfg.normalize_image(pts)), pts, atol=1e-12)


def test_optical_config_validation():
    with pytest.raises(ValueError):
        OpticalConfig(wavelength_nm=-1.0)
    with pytest.raises(ValueError):
        OpticalConfig(numerical_aperture=2.0)
    with pytest.raises(ValueError):
        OpticalConfig(magnification=0.0)


def test_grid_basics():
    grid = ImageGrid(4, 3, 0.5, (1.0, -1.0))
    np.testing.assert_allclose(grid.xs, [1.0, 1.5, 2.0, 2.5])
    np.testing.assert_allclose(grid.ys, [-1.0, -0.5, 0.0])
    scaled = grid.scaled(2.0)
    np.testing.assert_allclose(scaled.xs, 2 * grid.xs)
    assert grid.pixel_area == 0.25
    with pytest.raises(ValueError):
        ImageGrid(1, 3, 0.5, (0.0, 0.0))


def test_grid_for_polygons_covers_bbox():
    poly = [np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 4.0], [0.0, 4.0]])]
    grid = ImageGrid.for_polygons(poly, pitch=1.0, margin=0.2)
    assert grid.xs[0] <= -2.0 + 1.0 and grid.xs[-1] >= 12.0 - 1.0
    assert grid.ys[0] <= -0.8 + 1.0 and grid.ys[-1] >= 4.8 - 1.0


def square_mesh(side=1.0, samples=24, max_area=0.01):
    from splinemask.geometry import polygon_perimeter_points
    corners = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    return refine_mesh(triangulate_region(polygon_perimeter_points(corners, samples)), max_area)


def test_forward_empty_is_zero():
    grid = ImageGrid(5, 5, 0.2, (0.0, 0.0))
    field = forward_amplitude([], TriangleQuadrature.degree3(), grid)
    assert np.all(field.values == 0.0)
    assert np.all(field.intensity_values == 0.0)


def test_forward_translation_invariance():
    quad = TriangleQuadrature.degree3()
    mesh = square_mesh(max_area=0.05)
    grid = ImageGrid(8, 8, 0.25, (-0.4, -0.4))
    base = forward_amplitude([mesh], quad, grid)
    shift = np.array([1.7, -0.9])
    moved_mesh = mesh.with_boundary(mesh.boundary + shift)
    moved_grid = ImageGrid(8, 8, 0.25, (-0.4 + shift[0], -0.4 + shift[1]))
    moved = forward_amplitude([moved_mesh], quad, moved_grid)
    assert np.abs(moved.values - base.values).max() < 1e-12


def test_forward_superposition():
    quad = TriangleQuadrature.degree3()
    mesh_a = square_mesh(max_area=0.05)
    mesh_b = mesh_a.with_boundary(mesh_a.boundary + np.array([2.0, 0.0]))
    grid = ImageGrid(10, 10, 0.3, (-0.5, -0.5))
    both = forward_amplitude([mesh_a, mesh_b], quad, grid)
    only_a = forward_amplitude([mesh_a], quad, grid)
    only_b = forward_amplitude([mesh_b], quad, grid)
    assert np.abs(both.values - only_a.values - only_b.values).max() < 1e-12


def test_forward_real_valued_and_intensity():
    field = AmplitudeField(np.array([[1.5, -2.0], [0.0, 3.0]]))
    np.testing.assert_allclose(field.intensity_values, [[2.25, 4.0], [0.0, 9.0]])
    mesh = square_mesh(max_area=0.05)
    out = forward_amplitude([mesh], TriangleQuadrature.degree3(), ImageGrid(6, 6, 0.3, (-0.3, -0.3)))
    assert np.isrealobj(out.values)
    assert (out.intensity_values >= 0.0).all()


def test_forward_refinement_consistency():
    # tightening the area tolerance 8x must shrink the field error clearly;
    # centroid splitting does not preserve aspect ratios, so the observed
    # order sits between first and second in the max-edge sense
    quad = TriangleQuadrature.degree3()
    grid = ImageGrid(8, 8, 0.25, (-0.4, -0.4))
    coarse = forward_amplitude([square_mesh(max_area=0.08)], quad, grid)
    fine = forward_amplitude([square_mesh(max_area=0.01)], quad, grid)
    finest = forward_amplitude([square_mesh(max_area=0.00125)], quad, grid)
    err_coarse = np.abs(coarse.values - finest.values).max()
    err_fine = np.abs(fine.values - finest.values).max()
    assert err_coarse / err_fine > 2.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.5, 1.0), two_regions=st.booleans(),
       nx=st.integers(2, 12), ny=st.integers(2, 12), pitch=st.floats(0.02, 0.3),
       origin=st.tuples(st.floats(-1.5, 0.5), st.floats(-1.5, 0.5)))
def test_pupil_integral_matches_direct_sum(desk_square, seed, scale, two_regions, nx, ny, pitch,
                                           origin):
    # perturbed, scaled copies of the desk square on grids whose largest
    # point-to-pixel distance D runs from about 0.4 to 5
    cfg, problem, region = desk_square
    rng = np.random.default_rng(seed)
    regions = [region.with_controls(scale * region.controls
                                    + rng.uniform(-0.05, 0.05, region.controls.shape))]
    if two_regions:
        regions.append(regions[0].with_controls(regions[0].controls + [1.2, 0.3]))
    grid = ImageGrid(nx, ny, pitch, origin)
    systems = [build_region_system(r, problem) for r in regions]
    meshes = [s.mesh for s in systems]
    sens = [s.sens for s in systems]

    u = forward_amplitude(meshes, problem.quad, grid).values
    assert np.abs(u - direct_forward_amplitude(meshes, problem.quad, grid).values).max() <= 1e-12
    fields = amplitude_gradient(meshes, problem.quad, grid, sens)
    for got, want in zip(fields, direct_amplitude_gradient(meshes, problem.quad, grid, sens)):
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


def test_forward_and_gradient_make_no_bessel_call(desk_square, monkeypatch):
    def no_bessel(*args):
        raise AssertionError("Bessel function called")

    for module in (optics, gradient):
        for name in ("j0", "j1", "jv"):
            monkeypatch.setattr(module, name, no_bessel, raising=False)
    cfg, problem, region = desk_square
    evaluation = evaluate(problem, [region])
    grads = gradient_of(problem, evaluation)
    assert np.isfinite(evaluation.objective)
    assert np.abs(grads[0]).max() > 0.0
