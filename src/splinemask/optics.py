"""Coherent imaging through the Airy point-spread function.

All optical computation happens in dimensionless coordinates where lengths
are measured in units of wavelength / NA (with the extra -M factor on the
mask side). In those units the point-spread function of the circular pupil
is H(rho) = J1(2 pi rho) / rho, which is real, so the image amplitude is a
real scalar field and the intensity is its pointwise square.

H is the Fourier transform of the unit pupil disk, so the image of a mask
region P, U(x) = int_P H(x - g) dg, equals the pupil integral
U(x) = int_{|f| <= 1} S(f) exp(2 pi i f.x) df of the mask spectrum
S(f) = int_P exp(-2 pi i f.g) dg. The integral is evaluated on a polar node
table (Gauss-Legendre in r, trapezoid in theta over half the disk, then
2 Re) sized by D, the largest distance from a region's curve points or mesh
vertices to a pixel. The distance to a pixel is convex, so no point of a
mesh reaches farther; a curve may bulge a little past the hull of its
points, within the margins of the rule. The radial count follows from D and
each ring's angular count from its own reach r D, so inner rings take fewer
nodes. On the tensor pixel grid the synthesis is one real matrix product and
no Bessel function is evaluated. `NodeTable` holds the nodes and the grid-side
exponentials and synthesizes any spectrum.

The chain images each region's spline curve. By the divergence theorem its
spectrum is a boundary integral, S = sign (i / |k|^2) int exp(-i k . r)
(k_x dy - k_y dx) with k = 2 pi f, taken at the Gauss points r_q of
`spline.curve_rule` with steps dr_q = w_q r'_q: then
S = sign (i / |k|^2) (k_x A_y - k_y A_x) for the point spectra A of the
points with the rows dx and dy of the steps as coefficients
(`curve_spectrum`). The library images a triangle mesh of a region through a
triangle quadrature rule, with quadrature points g_q and weights c_q (the
triangle area times the rule weight), as S(f) = sum_q c_q exp(-2 pi i f.g_q),
on the node table of the mesh's vertices (`forward_amplitude`).

Both are point spectra, and one formula forms every phasor the package
uses: `phasors`, from the tangent of the half angles, u = tan(x / 2),
exp(i x) = ((1 - u^2) + 2 i u) / (1 + u^2). A node table's grid-side
exponentials are the phasors of the grid lines themselves
(`node_table_at`). `point_spectra` writes the phasors of a block of points
into one work array of the call and contracts them with their coefficients
as two real matrix products (`phasor_sums`); no kernel keeps state between
calls. The finite differences of `pipeline` keep one curve's phasors and
form anew only the rows a bump moves (`moved_point_spectra`), with the same
contraction. numpy evaluates tan with a SIMD loop where the CPU has
AVX-512, several times faster than a libm sin or cos; elsewhere it calls
libm's tan, and one tangent then costs about as much as the sin or cos it
replaces. The two round
differently, so the last bits of an image depend on which one numpy
dispatches, and on the BLAS that forms the products.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .mesh import MeshError, ProvenancedMesh, TriangleQuadrature, assemble_tensor, gauss_points

# Below this radius the kernel switches to its series form, which keeps the
# 0/0 at the kernel peak out of the values.
SMALL_RHO = 1e-6

# Points per block in `point_spectra`: a block's work array holds
# 3 x POINT_BLOCK x K reals, whatever the number of points.
POINT_BLOCK = 512

# The pupil rule at reach D (`pupil_node_counts`, `pupil_nodes`): past pi D / 2
# rings, RADIAL_LAYER (pi D)^(1/3) + RADIAL_MARGIN more, and at least
# MIN_RINGS; on a ring of reach rho, past pi rho nodes, RING_LAYER
# (pi rho)^(1/3) + RING_MARGIN more (`ring_count`).
RADIAL_LAYER = 5.0
RADIAL_MARGIN = 0.5
MIN_RINGS = 3
RING_LAYER = 6.0
RING_MARGIN = 0.5

# The largest reach D, in units of wavelength / NA, that a configuration may
# ask of the pupil rule: about 21 um at 193 nm and NA 0.93. The node table
# there has 35,991 nodes, 576 KB per grid row, and it grows as D ** 2.
# `pupil_node_counts` refuses any farther reach, such as a line-search trial's
# or a finite-difference bump's, but for rounding: the Gauss points of a curve
# whose controls lie within the bound can round a few ulps past it.
MAX_REACH = 100.0

# The most samples along either side, nx or ny, a configuration may ask of
# the image grid. Each (nx, ny) float64 image array is then at most 8 MiB;
# the library's mesh gradient synthesizes 2n of them per region for n
# controls, and the chain's curve gradient none. A node table's wex and ey,
# (nx, K) complex and (2K, ny) float, grow with one side each, so they hold
# at most 16 bytes x 1024 x K each: 562 MiB at MAX_REACH, where K = 35,991.
# One table is then 1.1 GiB, more than NODE_TABLE_BYTES on its own; these
# figures follow from the array shapes alone.
MAX_GRID_SIDE = 1024

# The most bytes of node tables (`NodeTable.nbytes`) that `node_table_at`
# keeps, one table per (grid, n_r, n_theta); only the newest table, which it
# always keeps, can pass it alone. A count of tables bounds no memory, since
# one table ranges from 0.1 MB to 1.1 GiB: at 8 tables a config that passes
# every bound could keep 8.8 GiB. A desk optimize run meets 4 node counts and
# a 100-step full-scale run 6, none of them above 1 MB, so this keeps all of
# theirs, while at MAX_GRID_SIDE and MAX_REACH the cache holds one table
# between calls.
NODE_TABLE_BYTES = 2**30


@dataclass(frozen=True)
class OpticalConfig:
    """Imaging-system constants: wavelength (nm), numerical aperture, magnification."""

    wavelength_nm: float = 193.0
    numerical_aperture: float = 0.93
    magnification: float = -1.0

    def __post_init__(self):
        if not 0 < self.wavelength_nm < math.inf:
            raise ValueError("wavelength_nm must be positive and finite")
        if not 0 < self.numerical_aperture < 1.5:
            raise ValueError("numerical_aperture must be in (0, 1.5)")
        if not (math.isfinite(self.magnification) and self.magnification != 0):
            raise ValueError("magnification must be finite and nonzero")

    @property
    def scale_per_nm(self) -> float:
        """Normalized units per nm on the image side: NA / wavelength."""
        return self.numerical_aperture / self.wavelength_nm

    def normalize_mask(self, points_nm):
        """Mask-plane nm -> normalized: multiply by -M * NA / wavelength."""
        return np.asarray(points_nm, dtype=float) * (-self.magnification * self.scale_per_nm)

    def denormalize_mask(self, points):
        return np.asarray(points, dtype=float) / (-self.magnification * self.scale_per_nm)

    def normalize_image(self, points_nm):
        """Image-plane nm -> normalized: multiply by NA / wavelength."""
        return np.asarray(points_nm, dtype=float) * self.scale_per_nm


@dataclass(frozen=True)
class ImageGrid:
    """Equidistant image-plane sampling lattice, unit-agnostic.

    Sample i along x sits at origin[0] + i * pitch; same along y. The same
    structure serves nm and normalized coordinates via `scaled`.
    """

    nx: int
    ny: int
    pitch: float
    origin: tuple[float, float]

    def __post_init__(self):
        if not self.nx >= 2:
            raise ValueError("nx must be at least 2")
        if not self.ny >= 2:
            raise ValueError("ny must be at least 2")
        if not 0 < self.pitch < math.inf:
            raise ValueError("pitch must be positive and finite")
        origin = tuple(float(v) for v in self.origin)
        if len(origin) != 2 or not all(map(math.isfinite, origin)):
            raise ValueError("origin must be a finite (x, y) pair")
        object.__setattr__(self, "origin", origin)

    @property
    def xs(self) -> np.ndarray:
        return self.origin[0] + np.arange(self.nx) * self.pitch

    @property
    def ys(self) -> np.ndarray:
        return self.origin[1] + np.arange(self.ny) * self.pitch

    @cached_property
    def center(self) -> np.ndarray:
        """(x, y) midway between the first and last samples, (xs[0] + xs[-1]) / 2 bit for bit; read-only, made once."""
        x0, y0 = self.origin
        center = np.array([x0 + (x0 + (self.nx - 1) * self.pitch),
                           y0 + (y0 + (self.ny - 1) * self.pitch)]) / 2.0
        center.setflags(write=False)
        return center

    @cached_property
    def half_extent(self) -> np.ndarray:
        """(x, y) from the first sample to the `center`, the grid's half width and height; read-only, made once."""
        half = self.center - self.origin
        half.setflags(write=False)
        return half

    @property
    def pixel_area(self) -> float:
        return self.pitch * self.pitch

    def scaled(self, factor: float) -> "ImageGrid":
        return replace(self, pitch=self.pitch * factor,
                       origin=(self.origin[0] * factor, self.origin[1] * factor))

    def flat_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """All sample coordinates flattened with index ix * ny + iy."""
        gx = np.repeat(self.xs, self.ny)
        gy = np.tile(self.ys, self.nx)
        return gx, gy

    @classmethod
    def for_polygons(cls, polygons, pitch: float, margin: float = 0.2,
                     nx: int | None = None, ny: int | None = None,
                     origin: tuple[float, float] | None = None) -> "ImageGrid":
        """Grid covering the polygons' bounding box grown by `margin` per side.

        Given values of nx, ny and origin are kept and the missing ones are
        fitted to the box, so without polygons all three must be given.
        """
        if not 0 <= margin < math.inf:
            raise ValueError("margin must be non-negative and finite")
        # check the given values before any of them sizes the lattice
        grid = cls(2 if nx is None else nx, 2 if ny is None else ny, pitch,
                   (0.0, 0.0) if origin is None else origin)
        missing = [name for name, value in (("origin", origin), ("nx", nx), ("ny", ny)) if value is None]
        if not missing:
            return grid
        if not len(polygons):
            raise ValueError(f"{missing[0]} is required when there are no polygons")
        pts = np.concatenate([np.asarray(p, dtype=float) for p in polygons])
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = hi - lo
        lo = lo - margin * span
        hi = hi + margin * span
        with np.errstate(over="ignore"):
            steps = np.ceil((hi - lo) / pitch)
        if not np.isfinite(steps).all():
            raise ValueError("pitch is too small: the samples across the polygons overflow a float")
        if nx is None:
            nx = max(2, int(steps[0]) + 1)
        if ny is None:
            ny = max(2, int(steps[1]) + 1)
        if origin is None:
            # center the lattice on the grown box
            cx, cy = (lo + hi) / 2.0
            origin = (cx - (nx - 1) * pitch / 2.0, cy - (ny - 1) * pitch / 2.0)
        return cls(nx, ny, pitch, origin)


def bessel_j(order: int, x):
    """Bessel function of the first kind J_order for order 0, 1 or 2."""
    from scipy.special import j0, j1, jv  # the image itself evaluates no Bessel function

    if order == 0:
        return j0(x)
    if order == 1:
        return j1(x)
    if order == 2:
        return jv(2, x)
    raise ValueError("only orders 0, 1, 2 are supported")


def airy_kernel(rho):
    """H(rho) = J1(2 pi rho) / rho with the removable singularity H(0) = pi."""
    from scipy.special import j1

    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(j1(2.0 * np.pi * rho) / rho)
    small = rho < SMALL_RHO
    if small.any():
        out[small] = np.pi - 0.5 * np.pi**3 * rho[small] ** 2
    return out


def psf(dx, dy):
    """Point-spread function at a normalized offset; radially symmetric."""
    return airy_kernel(np.hypot(dx, dy))


@dataclass(frozen=True)
class AmplitudeField:
    """Real amplitude samples U on an (nx, ny) grid; intensity is U squared."""

    values: np.ndarray

    @property
    def intensity_values(self) -> np.ndarray:
        return self.values * self.values


def ring_count(reach):
    """Trapezoid nodes on the half circle of a ring of reach rho = r D, before rounding up.

    pi rho + RING_LAYER (pi rho)^(1/3) + RING_MARGIN, elementwise: on that ring
    the exponentials turn through 2 pi rho radians around the circle.
    """
    k = np.pi * np.asarray(reach, dtype=float)
    return k + RING_LAYER * np.cbrt(k) + RING_MARGIN


def pupil_nodes(n_r: int, n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies (2, K) as rows fx, fy and weights (K,) of the half-disk rule, read-only.

    Gauss-Legendre in r on [0, 1] with the weight r dr gives n_r rings. The
    outer count n_theta = ceil(`ring_count`(D)) fixes the largest reach D of
    the rule: s = (pi D)^(1/3) is the real root of
    s^3 + RING_LAYER s + RING_MARGIN - n_theta = 0 (Cardano's formula). Ring
    i, of radius r_i, takes the trapezoid rule on theta in [0, pi) with
    n_i = ceil(ring_count(r_i D)) nodes and weight pi / n_i, the angular
    count at the ring's own reach. So n_i <= n_theta, and K = sum_i n_i,
    ring by ring. The weights carry the factor 2 of the 2 Re that adds the
    other half of the disk, so for any F with F(-f) = conj(F(f)),
    int_{|f| <= 1} F df ~ Re sum_k w_k F(f_k).
    """
    t, w = leggauss(n_r)
    r = 0.5 * (t + 1.0)
    half_q = 0.5 * (n_theta - RING_MARGIN)
    u = (half_q + math.sqrt(half_q * half_q + (RING_LAYER / 3.0) ** 3)) ** (1.0 / 3.0)
    s = u - RING_LAYER / (3.0 * u)
    counts = np.ceil(ring_count(r * (s ** 3 / np.pi))).astype(int)
    theta = np.concatenate([np.arange(n) * (np.pi / n) for n in counts])
    radius = np.repeat(r, counts)
    freqs = np.stack([radius * np.cos(theta), radius * np.sin(theta)])
    weights = np.repeat(w * r * (np.pi / counts), counts)
    for table in (freqs, weights):
        table.setflags(write=False)
    return freqs, weights


def pupil_node_counts(distance: float) -> tuple[int, int]:
    """Radial and angular node counts that resolve point-to-pixel offsets up to `distance`.

    Over the pupil the exponentials turn through pi D radians along the
    radius and 2 pi D around the circle. Gauss-Legendre in r resolves them
    from about pi D / 2 nodes on, and the trapezoid rule on a ring of reach
    rho from about pi rho; past those counts the error falls geometrically,
    after a transition layer that widens as the cube root of the reach, as
    at the turning point of J_n(2 pi rho) (Trefethen and Weideman, SIAM
    Review 56(3), 2014). So
    n_r = ceil(pi D / 2 + RADIAL_LAYER (pi D)^(1/3) + RADIAL_MARGIN), at
    least MIN_RINGS, and n_theta = ceil(`ring_count`(D)); neither falls as
    D grows. The target is 1e-12 on the image, met with a safety factor of
    5: against the direct sums, mesh images (1e-12) and their gradients
    (1e-11 of max|dU|) for D from 0.3 to 11, and curve images (1e-12) for D
    from 1e-7 to MAX_REACH, all stayed within 0.17 of their bounds, the mesh
    gradient at D = 9.5 to 11 the closest. With RING_MARGIN = 1/4 the curve
    images above D = 12 came to 0.7 of the bound, and with fewer than
    MIN_RINGS rings so did those below D = 1e-3.

    Raises MeshError, naming D, when D passes MAX_REACH by more than a
    relative 1e-12 of rounding, or is not a number: the rule is sized and
    validated up to MAX_REACH only.
    """
    if not distance <= MAX_REACH * (1.0 + 1e-12):
        raise MeshError(f"a reach of {distance:g} wavelength / NA from the grid is past "
                        f"the {MAX_REACH:g} the pupil rule is sized for")
    k = math.pi * distance
    n_r = math.ceil(0.5 * k + RADIAL_LAYER * k ** (1.0 / 3.0) + RADIAL_MARGIN)
    return max(MIN_RINGS, n_r), math.ceil(ring_count(distance))


@dataclass(frozen=True)
class NodeTable:
    """Pupil nodes of one node count on one image grid, with the grid-side exponentials.

    `k` holds the node wave vectors k = 2 pi f_k as rows k_x, k_y, (2, K),
    and `edge_factor` i / |k|^2, (K,) complex, the factor of a boundary
    integral's spectrum (`curve_spectrum`); every pupil node has |f| > 0.
    `wex` is w_k exp(2 pi i f_k,x x_i), (nx, K), with x_i relative to the
    grid center; `ey` is conj(exp(2 pi i f_k,y y_j)) seen as reals, (2K, ny)
    C-ordered, with the real part of node k in row 2k and its imaginary part
    in row 2k + 1, the layout that the synthesis product reads. All four are
    read-only, and `node_table_at` keeps tables per grid and node count
    within NODE_TABLE_BYTES.
    """

    k: np.ndarray
    edge_factor: np.ndarray
    wex: np.ndarray
    ey: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes held by `k`, `edge_factor`, `wex` and `ey`."""
        return self.k.nbytes + self.edge_factor.nbytes + self.wex.nbytes + self.ey.nbytes

    def synthesize(self, spectra: np.ndarray) -> np.ndarray:
        """Pupil integral of each spectrum, (..., K) complex -> (..., nx, ny) real.

        U[i, j] = Re sum_k w_k S_k exp(2 pi i (f_k,x x_i + f_k,y y_j)) for every
        leading index. Re(a b) = Re a Re b + Im a Im(conj b), so reading the
        x-side products as interleaved reals makes this one real (nx, 2K)
        by (2K, ny) matrix product against `ey` per spectrum, the same
        product whether a spectrum comes alone or in a stack; one product
        over a whole stack could round differently. The products are formed
        C-ordered whatever the layout of `spectra`, so that they are read as
        reals without a copy.
        """
        a = np.multiply(spectra[..., None, :], self.wex, order="C")
        return np.matmul(a.view(np.float64), self.ey)

    def adjoint(self, weight: np.ndarray) -> np.ndarray:
        """L_k = w_k sum_ij weight[i, j] exp(2 pi i f_k . x_ij), (nx, ny) real -> (K,) complex.

        The adjoint of `synthesize`: sum_ij weight U = Re sum_k L_k S_k for the
        image U of a spectrum S. The y-side sums are one real matrix product
        against `ey`, which gives their conjugates; they are conjugated back
        and multiplied by `wex` in place, so a call holds one (nx, K) array.
        """
        sums = (weight @ self.ey.T).view(complex)  # (nx, K)
        return np.multiply(self.wex, np.conjugate(sums, out=sums), out=sums).sum(axis=0)


def grid_reach(grid: ImageGrid, points: np.ndarray) -> float:
    """D, the largest distance between one of the points (..., 2) and a sample of `grid`.

    For each point it is reached at a grid corner.
    """
    return math.sqrt(_corner_squares(grid, points).max())


def grid_reaches(grid: ImageGrid, points: np.ndarray) -> np.ndarray:
    """`grid_reach` of each point set of a stack (..., Q, 2), (...)."""
    return np.sqrt(_corner_squares(grid, points).max(axis=-1))


def _corner_squares(grid: ImageGrid, points: np.ndarray) -> np.ndarray:
    """The squared distance from each point (..., 2) to its farthest grid corner, (...)."""
    d = np.abs(points - grid.center)
    d += grid.half_extent
    d *= d
    return d[..., 0] + d[..., 1]


# The kept node tables, least recently used first, and the lock that makes
# a lookup, a build and the evictions after it one step for concurrent callers.
_node_tables: dict[tuple[ImageGrid, int, int], NodeTable] = {}
_node_tables_lock = threading.Lock()


def node_table_at(grid: ImageGrid, n_r: int, n_theta: int) -> NodeTable:
    """The NodeTable of `grid` at these node counts, formed on first use and kept while the kept tables fit NODE_TABLE_BYTES.

    A lookup is a dict hit that marks the table most recently used. After a
    table is formed, the least recently used tables are dropped while the
    kept ones total more than NODE_TABLE_BYTES, but never the new one; a
    table formed again is bit for bit the one dropped.
    """
    key = (grid, n_r, n_theta)
    with _node_tables_lock:
        nodes = _node_tables.pop(key, None)
        if nodes is None:
            nodes = _form_node_table(grid, n_r, n_theta)
            while _node_tables and nodes.nbytes + sum(t.nbytes for t in _node_tables.values()) > NODE_TABLE_BYTES:
                del _node_tables[next(iter(_node_tables))]
        _node_tables[key] = nodes
    return nodes


def _form_node_table(grid: ImageGrid, n_r: int, n_theta: int) -> NodeTable:
    """The NodeTable of `grid` at these node counts: `k` (2, K), `edge_factor` (K,), `wex` (nx, K) and `ey` (2K, ny), read-only.

    Each grid line's exponentials are the `phasors` of one point, cos x plus
    2i times the half sine: exp(i k_x (x_i - c_x)) of the point (c_x - x_i, 0)
    and exp(-i k_y (y_j - c_y)) of (0, y_j - c_y), for the grid center c.
    """
    freqs, weights = pupil_nodes(n_r, n_theta)
    k = 2.0 * np.pi * freqs
    edge_factor = 1j / (k * k).sum(axis=0)

    def cis(points):
        cos, half_sin = phasors(points, k, np.empty((3, len(points), k.shape[1])))
        return cos + 2j * half_sin

    center = grid.center
    wex = weights * cis(np.stack([center[0] - grid.xs, np.zeros(grid.nx)], axis=1))
    ey = np.ascontiguousarray(cis(np.stack([np.zeros(grid.ny), grid.ys - center[1]], axis=1)).view(np.float64).T)
    for table in (k, edge_factor, wex, ey):
        table.setflags(write=False)
    return NodeTable(k, edge_factor, wex, ey)


def node_table(grid: ImageGrid, points: np.ndarray) -> NodeTable:
    """The cached node table for a region whose points (..., 2) span its convex hull.

    Its node counts follow from D, the grid's reach over the points
    (`pupil_node_counts`). The distance to a grid corner is convex, so no
    point of the hull reaches farther.
    """
    return node_table_at(grid, *pupil_node_counts(grid_reach(grid, points)))


def phasors(points: np.ndarray, k: np.ndarray, work: np.ndarray) -> np.ndarray:
    """cos x and half of sin x for x = -k . g at points g (q, 2) and wave vectors k (2, K), in rows 1 and 2 of `work` (3, q, K), which it returns.

    The package's one phasor formula. It writes the half angles
    x / 2 = g . (-k / 2) as one matrix product into row 0, their tangents
    u, and cos x = (1 - u^2) / (1 + u^2) and half of sin x = u / (1 + u^2),
    within 2.6e-16 of exp(i x) for |x| up to 2 pi MAX_REACH. Each point's
    phasors depend on that point alone. No sin, cos or exp is evaluated.
    """
    u, cos, sin = work
    np.tan(np.matmul(points, -0.5 * k, out=u), out=u)
    np.multiply(u, u, out=cos)
    np.add(cos, 1.0, out=sin)
    np.subtract(1.0, cos, out=cos)
    np.divide(cos, sin, out=cos)
    np.divide(u, sin, out=sin)
    return work[1:]


def phasor_sums(coef: np.ndarray, tables, num_nodes: int) -> np.ndarray:
    """sum_q coef[..., q] exp(i x_q) for real coef (..., Q), (..., K) complex, from the phasor tables of successive point blocks.

    `tables` yields, block by block, the (2, q, K) cosines and half sines
    (`phasors`) of POINT_BLOCK points, the last block the rest, for
    K = `num_nodes`. Each block is contracted with its coefficients as two
    real matrix products, added in block order, the first block too, into
    the real and imaginary parts of one zeroed complex result, whose
    imaginary part is then doubled once. Doubling commutes with rounding, so
    the doubled sums are bitwise those of the sines.
    """
    rows = coef.reshape(-1, coef.shape[-1])
    out = np.zeros((len(rows), num_nodes), dtype=complex)
    for start, (cos, sin) in zip(range(0, rows.shape[1], POINT_BLOCK), tables):
        block = slice(start, start + POINT_BLOCK)
        out.real += rows[:, block] @ cos
        out.imag += rows[:, block] @ sin
    out.imag *= 2.0
    return out.reshape(*coef.shape[:-1], num_nodes)


def point_spectra(points: np.ndarray, coef: np.ndarray, k: np.ndarray) -> np.ndarray:
    """S_k = sum_q coef[..., q] exp(-i k_k . g_q) for points g (Q, 2), real coef (..., Q) and wave vectors k (2, K), (..., K) complex.

    The package's one point-spectrum kernel: the `phasors` of POINT_BLOCK
    points at a time at the wave vectors k, in one contiguous
    (3, min(Q, POINT_BLOCK), K) work array of this call, contracted block by
    block (`phasor_sums`); a single block takes the same path.
    """
    work = np.empty((3, min(len(points), POINT_BLOCK), k.shape[1]))
    blocks = (points[start:start + POINT_BLOCK] for start in range(0, len(points), POINT_BLOCK))
    return phasor_sums(coef, (phasors(block, k, work[:, :len(block)]) for block in blocks), k.shape[1])


def forward_amplitude(meshes: list[ProvenancedMesh], quad: TriangleQuadrature, grid: ImageGrid) -> AmplitudeField:
    """Aerial amplitude: triangle-quadrature convolution of all regions with the kernel.

    U(x) = sum over regions, triangles p, quadrature points q of
    w_q * H(x - g_pq) * |S_p|, evaluated per region as the pupil integral of
    the region's spectrum (`point_spectra`) on the node table of its mesh's
    vertices, which bound the reach of every quadrature point. Meshes and
    grid must already be in normalized coordinates. Summation order is fixed
    for reproducibility.
    """
    u = np.zeros((grid.nx, grid.ny))
    for mesh in meshes:
        nodes = node_table(grid, mesh.vertices)
        tensor = assemble_tensor(mesh)
        points = gauss_points(tensor, quad).reshape(-1, 2) - grid.center
        coef = np.outer(tensor.areas(), quad.weights).ravel()
        u += nodes.synthesize(point_spectra(points, coef, nodes.k))
    return AmplitudeField(u)


def boundary_spectrum(spectra: np.ndarray, sign, nodes: NodeTable) -> np.ndarray:
    """sign (i / |k|^2) (k_x A_y - k_y A_x) for point spectra A (..., 2, K) of a curve's steps and its orientation sign (...), (..., K) complex.

    The spectrum of the region a curve bounds (`curve_spectrum`), from the
    point spectra of its Gauss points with its steps as coefficients.
    """
    kx, ky = nodes.k
    ax, ay = spectra[..., 0, :], spectra[..., 1, :]
    return np.asarray(sign)[..., None] * nodes.edge_factor * (kx * ay - ky * ax)


def curve_spectrum(points: np.ndarray, steps: np.ndarray, sign: float, nodes: NodeTable) -> np.ndarray:
    """S_k = int_R exp(-2 pi i f_k . x) dx for the region R a closed curve bounds, at the nodes' frequencies, (K,) complex.

    With k = 2 pi f, by the divergence theorem (Lee and Mittra, IEEE TAP
    31(1), 1983; Wuttke, arXiv:1703.00255),
    S = sign (i / |k|^2) int exp(-i k . r) (k_x dy - k_y dx) along the curve,
    here a sum over its Gauss points r_q (Q, 2) with steps dr_q = w_q r'_q,
    given as rows dx and dy (2, Q): S = sign (i / |k|^2) (k_x A_y - k_y A_x)
    (`boundary_spectrum`) for A = `point_spectra` of the points with the
    steps as coefficients. i / |k|^2 is the nodes' `edge_factor`, and `sign`
    the curve's orientation, 1 counterclockwise, so either way round gives
    the spectrum of the region it bounds.
    """
    return boundary_spectrum(point_spectra(points, steps, nodes.k), sign, nodes)


def moved_point_spectra(table: np.ndarray, rows: np.ndarray, points: np.ndarray, coef: np.ndarray,
                        k: np.ndarray) -> np.ndarray:
    """`point_spectra` of point sets that each differ from a phasor table's points only at some rows, bit for bit.

    `table` (2, Q, K) holds the cosines and half sines (`phasors`) of points
    g at the wave vectors k, each row a function of its point and k alone.
    Set i is g with its rows `rows[i]` replaced by `points[i]`, (C, s) and
    (C, s, 2), and takes the coefficients `coef[i]`, (C, ..., Q). The moved
    rows' phasors are formed in one call. Set by set, they are written into
    the table, the coefficients are contracted with it block by block as
    `point_spectra` contracts them (`phasor_sums`), and the table's own rows
    are put back. (C, ..., K) complex.
    """
    size = table.shape[2]
    moved = phasors(points.reshape(-1, 2), k, np.empty((3, rows.size, size))).reshape(2, *rows.shape, size)
    out = np.empty((*coef.shape[:-1], size), dtype=complex)
    for i, (moved_rows, own) in enumerate(zip(rows, coef)):
        kept = table[:, moved_rows]
        table[:, moved_rows] = moved[:, i]
        out[i] = phasor_sums(own, (table[:, start:start + POINT_BLOCK]
                                   for start in range(0, table.shape[1], POINT_BLOCK)), size)
        table[:, moved_rows] = kept
    return out


def curve_amplitude(points: np.ndarray, steps: np.ndarray, sign: float, grid: ImageGrid) -> np.ndarray:
    """Aerial amplitude (nx, ny) of the region a closed curve bounds: the pupil integral of its `curve_spectrum`.

    `points` (Q, 2) are the curve's Gauss points in normalized coordinates
    and `steps` (2, Q) their steps w_q r'_q. The node table follows from the
    points (`node_table`).
    """
    nodes = node_table(grid, points)
    return nodes.synthesize(curve_spectrum(points - grid.center, steps, sign, nodes))
