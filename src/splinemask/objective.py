"""Image-fidelity objective and its gradient: sigmoid resist, binary target, squared error."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import points_in_polygon
from .mesh import check_loop
from .optics import AmplitudeField, ImageGrid


@dataclass(frozen=True)
class ResistModel:
    """Smooth threshold surrogate: sig(x) = 1 / (1 + exp(-a (x - tr)))."""

    steepness: float = 90.0
    threshold: float = 0.3

    def __post_init__(self):
        if not 0 < self.steepness < math.inf:
            raise ValueError("steepness must be positive and finite")
        if not 0 < self.threshold < math.inf:
            raise ValueError("threshold must be positive and finite")


@np.errstate(over="ignore")  # far out on the sigmoid's lower tail exp(t) is inf, and the quotient 0
def _inverse_one_plus_exp(t):
    """1 / (1 + exp(t)), the logistic at -t, written over the float array t, 0-d too, and returned.

    The only roundings are in exp, one add and one divide, so both tails
    keep full relative accuracy. In place, and with `np.reciprocal` rather
    than a divide of 1.0, the three ufuncs and the error state cost less per
    call than scipy's `expit` on a 20 x 20 image.
    """
    np.exp(t, out=t)
    t += 1.0
    return np.reciprocal(t, out=t)


def sigmoid(x, model: ResistModel):
    """Logistic resist response 1 / (1 + exp(-a (x - tr))), an array, 0-d for a scalar x; saturates without overflow, sig(tr) = 0.5."""
    t = np.asarray(model.threshold - np.asarray(x, dtype=float))
    t *= model.steepness  # a (tr - x), which is -a (x - tr) bit for bit
    return _inverse_one_plus_exp(t)


def sigmoid_derivative(x, model: ResistModel):
    """d/dx of the resist sigmoid: a sig(z) sig(-z) = a e / (1 + e)^2 with z = a (x - tr), e = exp(-|z|).

    e is at most 1, so nothing overflows, and the form is the same on both
    sides of tr, so the derivative keeps full relative accuracy on both
    saturated tails.
    """
    e = np.exp(-np.abs(model.steepness * (np.asarray(x, dtype=float) - model.threshold)))
    d = 1.0 + e
    return model.steepness * e / (d * d)


def check_target_polygon(polygon) -> np.ndarray:
    """A target polygon as an (m, 2) float array, or ValueError if it cannot be one.

    It needs at least 3 points, and must pass `mesh.check_loop` with no
    area floor: a finite shoelace area, no crossing edges or repeated point,
    and a nonzero area (MeshError, a ValueError, otherwise).
    """
    poly = np.asarray(polygon, dtype=float)
    if len(poly) < 3:
        raise ValueError("polygon needs at least 3 points")
    check_loop(poly, min_area=0.0)
    return poly


def rasterize_target(polygons, grid: ImageGrid) -> np.ndarray:
    """Binary target raster of polygons that each pass `check_target_polygon`."""
    return rasterize_checked([check_target_polygon(poly) for poly in polygons], grid)


def rasterize_checked(polygons, grid: ImageGrid) -> np.ndarray:
    """Binary target raster: pixel = 1 iff its sample point is inside any polygon.

    Uses the even-odd rule. The polygons must already have passed
    `check_target_polygon`, which makes them simple, and be in grid units.
    """
    raster = np.zeros((grid.nx, grid.ny), dtype=np.uint8)
    px, py = grid.flat_coords()
    for poly in polygons:
        raster |= points_in_polygon(px, py, poly).reshape(grid.nx, grid.ny)
    return raster


def objective_value(intensity_array: np.ndarray, target: np.ndarray,
                    model: ResistModel, grid: ImageGrid) -> float:
    """Discrete image-fidelity error J = sum (sig(I) - target)^2 * dx * dy."""
    return float(objective_values(intensity_array, target, model, grid))


def objective_values(intensity_array: np.ndarray, target: np.ndarray,
                     model: ResistModel, grid: ImageGrid) -> np.ndarray:
    """J of each image of a stack (..., nx, ny) of intensities, (...); `objective_value` of one image.

    The sum over each image is numpy's pairwise sum over its nx ny values,
    the same whether the image stands alone or in a stack.
    """
    intensity_array = np.asarray(intensity_array, dtype=float)
    if intensity_array.shape[-2:] != np.shape(target):
        raise ValueError("intensity and target shapes differ")
    if intensity_array.shape[-2:] != (grid.nx, grid.ny):
        raise ValueError("intensity shape does not match the grid")
    residual = sigmoid(intensity_array, model)
    residual -= target  # in place; a float target, as `pipeline` passes, needs no conversion
    residual *= residual
    return np.add.reduce(residual, axis=(-2, -1)) * grid.pixel_area


def pixel_weight(field: AmplitudeField, target: np.ndarray, model: ResistModel,
                 grid: ImageGrid) -> np.ndarray:
    """dJ/dU per pixel, (nx, ny): 2 (sig(I) - target) sig'(I) * 2U * dx dy.

    The 2U factor is the collapse of the conjugate pair for the real kernel.
    """
    intensity = field.intensity_values
    residual = sigmoid(intensity, model) - np.asarray(target, dtype=float)
    return 4.0 * residual * sigmoid_derivative(intensity, model) * field.values * grid.pixel_area


def objective_gradient(field: AmplitudeField, target: np.ndarray, model: ResistModel,
                       grid: ImageGrid, amplitude_grads: list[np.ndarray]) -> list[np.ndarray]:
    """Gradient of J w.r.t. all control coordinates, one (n, 2) array per region.

    Contracts the amplitude-derivative fields with the `pixel_weight`.
    """
    weight = pixel_weight(field, target, model, grid)
    return [np.einsum("xy,ncxy->nc", weight, fields) for fields in amplitude_grads]


class PrintReport(NamedTuple):
    printed: np.ndarray
    epe: np.ndarray
    epe_count: int


def print_and_epe(intensity_array: np.ndarray, target: np.ndarray,
                  model: ResistModel) -> PrintReport:
    """Hard-threshold print raster and its XOR mismatch against the target.

    The EPE raster marks pixels where the printed pattern disagrees with the
    target; the count is the number of such pixels.
    """
    intensity_array = np.asarray(intensity_array, dtype=float)
    if intensity_array.shape != np.shape(target):
        raise ValueError("intensity and target shapes differ")
    printed = (intensity_array >= model.threshold).astype(np.uint8)
    epe = printed ^ np.asarray(target, dtype=np.uint8)
    return PrintReport(printed, epe, int(epe.sum()))
