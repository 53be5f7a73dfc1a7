"""Finite-difference probes of localization: spectra, IPR, resolvent decay.

Finite boxes have pure point spectrum by construction, so nothing here
"proves" absence of continuous spectrum; the diagnostics quantify
localization proxies instead: inverse participation ratios, exponential
decay fits of eigenvectors, and off-diagonal resolvent decay at energies
in spectral gaps of the unperturbed operator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # scipy is imported by the functions that call it
    import scipy.sparse as sp

from .models import CouplingMap, RandomPotentialModel, evaluate_potential, require_window

__all__ = [
    "GridOperator",
    "SpectralWindowResult",
    "ResolventDecayFit",
    "StateDiagnostics",
    "LocalizationReport",
    "discretize",
    "eigenpairs",
    "spectrum_gaps",
    "ipr",
    "decay_rate_fit",
    "resolvent_decay",
    "resolvent_decay_table",
    "localization_report",
]

DENSE_LIMIT = 3000
AMPLITUDE_FLOOR = 1e-12
MIN_SPECTRUM_DISTANCE = 1e-6  # resolvent_decay refuses energies closer to the spectrum
BOUNDARY_MARGIN = 0.15  # resolvent_decay fits nodes at least this share of a side inside
RESOLVENT_CHECKS = 3  # localization_report cross-checks this many of the lowest gap states


@dataclass(eq=False)
class GridOperator:
    """-Laplacian + diagonal potential on a Dirichlet grid in d in {1, 2}.

    Standard second-order stencil: 2d/h^2 on the diagonal, -1/h^2 to each
    neighbor, plus the sampled potential.  `origin` is the coordinate of
    grid node (0, ..., 0); flattening is C-order.
    """

    dimension: int
    shape: tuple[int, ...]
    spacing: float
    origin: np.ndarray
    potential: np.ndarray

    _matrix_cache: sp.csr_matrix | None = field(default=None, repr=False)
    _eigen_cache: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("grid operators support d in {1, 2}")
        if len(self.shape) != self.dimension:
            raise ValueError("shape rank must match dimension")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        n = int(np.prod(self.shape))
        if self.potential.shape != (n,):
            raise ValueError("potential must be flat with one value per node")

    @staticmethod
    def free(dimension: int, shape, spacing: float = 1.0) -> "GridOperator":
        """Zero-potential operator on a centered box."""
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        origin = -spacing * (np.asarray(shape, dtype=float) - 1.0) / 2.0
        return GridOperator(
            dimension,
            shape,
            spacing,
            origin,
            np.zeros(int(np.prod(shape))),
        )

    @property
    def n_unknowns(self) -> int:
        return int(np.prod(self.shape))

    def node_coordinates(self) -> np.ndarray:
        axes = [
            self.origin[k] + self.spacing * np.arange(self.shape[k])
            for k in range(self.dimension)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def matrix(self) -> sp.csr_matrix:
        if self._matrix_cache is None:
            import scipy.sparse as sp
            inv_h2 = 1.0 / self.spacing**2
            blocks = []
            for npts in self.shape:
                main = np.full(npts, 2.0 * inv_h2)
                off = np.full(npts - 1, -inv_h2)
                blocks.append(sp.diags([off, main, off], [-1, 0, 1], format="csr"))
            if self.dimension == 1:
                lap = blocks[0]
            else:
                nx, ny = self.shape
                lap = sp.kron(blocks[0], sp.identity(ny, format="csr")) + sp.kron(
                    sp.identity(nx, format="csr"), blocks[1]
                )
            self._matrix_cache = (lap + sp.diags(self.potential)).tocsr()
        return self._matrix_cache

    def norm_bound(self) -> float:
        """Infinity-norm upper bound on the operator norm."""
        a = self.matrix()
        return float(np.max(np.abs(a).sum(axis=1)))

    def shifted(self, c: float) -> "GridOperator":
        return GridOperator(
            self.dimension, self.shape, self.spacing, self.origin.copy(),
            self.potential + c,
        )

    def all_eigenvalues(self) -> np.ndarray:
        """Full spectrum (dense path; refuses oversized operators)."""
        if self._eigen_cache is None:
            if self.n_unknowns > DENSE_LIMIT:
                raise ValueError(
                    f"{self.n_unknowns} unknowns exceed the dense limit "
                    f"{DENSE_LIMIT}; probe gaps on a smaller box"
                )
            import scipy.linalg
            self._eigen_cache = (scipy.linalg.eigvalsh(self.matrix().toarray()),)
        return self._eigen_cache[0]

    def boundary_mask(self) -> np.ndarray:
        idx = np.unravel_index(np.arange(self.n_unknowns), self.shape)
        mask = np.zeros(self.n_unknowns, dtype=bool)
        for k in range(self.dimension):
            mask |= (idx[k] == 0) | (idx[k] == self.shape[k] - 1)
        return mask

    def write_triplets(self, fp: IO[str]) -> None:
        """Sparse export: header 'n n nnz', then one 'i j value' per line."""
        a = self.matrix().tocoo()
        fp.write(f"{a.shape[0]} {a.shape[1]} {a.nnz}\n")
        for i, j, v in zip(a.row, a.col, a.data):
            fp.write(f"{i} {j} {v!r}\n")


def discretize(
    model: RandomPotentialModel,
    couplings: CouplingMap,
    box: float,
    h: float,
    include_background: bool = True,
) -> GridOperator:
    """Sample the random potential on a centered box and assemble the operator.

    Potential values are taken pointwise at nodes (O(h) quadrature error
    for rough profiles).  The box plus one support radius must lie inside
    the sampled coupling window.
    """
    if h <= 0:
        raise ValueError("spacing must be positive")
    if box <= h:
        raise ValueError("box must exceed the spacing")
    d = model.dimension
    if d not in (1, 2):
        raise ValueError("discretization supports d in {1, 2}")
    needed = box * math.sqrt(d) + model.max_support_radius()
    require_window(couplings.window_radius, needed, " needed by the box corner plus support")
    n_side = int(round(2.0 * box / h)) - 1
    if n_side < 1:
        raise ValueError("box too small for the requested spacing")
    shape = (n_side,) * d
    origin = np.full(d, -box + h)
    op = GridOperator(d, shape, h, origin, np.zeros(int(np.prod(shape))))
    nodes = op.node_coordinates()
    op.potential = np.asarray(
        evaluate_potential(model, couplings, nodes, include_background=include_background)
    )
    return op


@dataclass(frozen=True, eq=False)
class SpectralWindowResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, unit l2 norm
    residuals: np.ndarray
    window: tuple[float, float] | int | None
    method: str
    norm_bound: float

    @property
    def residual_ok(self) -> bool:
        return bool(np.all(self.residuals <= 1e-8 * self.norm_bound))

    @property
    def orthonormality_defect(self) -> float:
        if self.eigenvectors.size == 0:
            return 0.0
        gram = self.eigenvectors.T @ self.eigenvectors
        return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def eigenpairs(
    op: GridOperator, window: tuple[float, float] | int | None = None
) -> SpectralWindowResult:
    """Eigenpairs in an energy window, the lowest-k, or the full spectrum.

    Dense solver below DENSE_LIMIT unknowns; otherwise shift-invert
    Lanczos around the window center, growing the subspace until the
    window is bracketed on both sides.
    """
    n = op.n_unknowns
    a = op.matrix()
    bound = op.norm_bound()
    if n <= DENSE_LIMIT:
        import scipy.linalg
        vals, vecs = scipy.linalg.eigh(a.toarray())
        method = "dense"
    else:
        vals, vecs = _sparse_window_eigs(a, n, window)
        method = "shift-invert"
    if isinstance(window, tuple):
        keep = (vals >= window[0]) & (vals <= window[1])
        vals, vecs = vals[keep], vecs[:, keep]
    elif isinstance(window, int):
        order = np.argsort(vals)[: window]
        vals, vecs = vals[order], vecs[:, order]
    r = a @ vecs
    r -= vecs * vals
    residuals = np.sqrt(np.einsum("ij,ij->j", r, r))
    return SpectralWindowResult(vals, vecs, residuals, window, method, bound)


def _sparse_window_eigs(a: sp.csr_matrix, n: int, window) -> tuple[np.ndarray, np.ndarray]:
    if window is None:
        raise ValueError(
            f"full spectrum of {n} unknowns is a dense-only query; pass a window"
        )
    import scipy.sparse.linalg as spla
    if isinstance(window, int):
        return spla.eigsh(a, k=window, which="SA")
    lo, hi = window
    sigma = 0.5 * (lo + hi)
    k = min(64, n - 2)
    while True:
        vals, vecs = spla.eigsh(a, k=k, sigma=sigma, which="LM")
        bracketed = (vals.min() < lo or k >= n - 2) and (vals.max() > hi or k >= n - 2)
        if bracketed:
            return vals, vecs
        k = min(2 * k, n - 2)


def spectrum_gaps(op: GridOperator, resolution: float) -> list[tuple[float, float]]:
    """Gaps of the discretized spectrum, merged at the given resolution.

    The first entry is the principal gap (-inf, min eigenvalue); interior
    gaps are consecutive-eigenvalue intervals wider than `resolution`.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    vals = np.sort(op.all_eigenvalues())
    gaps: list[tuple[float, float]] = [(-math.inf, float(vals[0]))]
    diffs = np.diff(vals)
    for i in np.where(diffs > resolution)[0]:
        gaps.append((float(vals[i]), float(vals[i + 1])))
    return gaps


def in_any_gap(energy: float, gaps: list[tuple[float, float]], margin: float = 0.0) -> bool:
    return any(lo + margin < energy < hi - margin for lo, hi in gaps)


def ipr(v: np.ndarray) -> float:
    """Inverse participation ratio sum v_j^4 of a unit vector."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"vector norm {norm} is not 1 within 1e-10")
    return float(np.sum(v**4))


@dataclass(frozen=True)
class DecayFit:
    rate: float  # per unit length
    quality: float  # coefficient of determination of the log fit
    n_points: int


def _loglinear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares line through (x, y): returns (-slope, R^2).  np.polyfit(x, y, 1)'s
    own steps, so bit-equal to it, without its per-call overhead."""
    lhs = np.ones((x.size, 2))  # vander(x, 2), C-ordered like it
    lhs[:, 0] = x
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    coef, _, rank, _ = np.linalg.lstsq(lhs / scale, y, x.size * np.finfo(float).eps)
    if rank < 2:
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
    slope, intercept = coef / scale
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    ss_tot = float(((y - y.sum() / y.size) ** 2).sum())  # y.sum() / y.size is np.mean(y)
    quality = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(-slope), quality


def _offset_distances(shape: tuple[int, ...], spacing: float) -> np.ndarray:
    """|k| * spacing for every node offset k, at index k + shape - 1 on each axis."""
    grids = np.meshgrid(*(np.arange(1 - s, s) for s in shape), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1)
    return (np.linalg.norm(offsets, axis=1) * spacing).reshape(grids[0].shape)


def _side_fits(amp, center: int, shape: tuple[int, ...], table: np.ndarray, sides) -> list:
    """Per side of `center`: (rate, quality, points) of log(amp) against the distance
    read from `table`, over the nodes above the floor; None if fewer than three."""
    at = np.unravel_index(center, shape)
    dist = table[tuple(slice(s - 1 - c, 2 * s - 1 - c) for s, c in zip(shape, at))].ravel()
    nodes = {"left": slice(0, center + 1), "right": slice(center, None), "both": slice(None)}
    fits = []
    for side in sides:
        part = amp[nodes[side]]
        keep = part > AMPLITUDE_FLOOR
        points = int(np.count_nonzero(keep))
        fit = _loglinear_fit(dist[nodes[side]][keep], np.log(part[keep])) if points >= 3 else None
        fits.append(None if fit is None else (*fit, points))
    return fits


def decay_rate_fit(
    v: np.ndarray,
    center: int,
    spacing: float = 1.0,
    shape: tuple[int, ...] | None = None,
    side: str = "both",
) -> DecayFit:
    """Least-squares exponential decay rate of |v| away from a center node.

    Fits log|v_j| against the distance from `center` over the nodes with
    |v_j| above the amplitude floor; `shape` switches to 2-D index
    distances.  In one dimension, `side` restricts the fit to the nodes
    left or right of the center: random environments decay at different
    rates on the two sides, and folding them onto one distance axis would
    understate the fit quality of a genuinely localized state.
    """
    v = np.asarray(v, dtype=float)
    if side not in ("both", "left", "right"):
        raise ValueError("side must be 'both', 'left' or 'right'")
    if shape is not None and side != "both":
        raise ValueError("side selection only applies in one dimension")
    shape = (v.size,) if shape is None else tuple(shape)
    (fit,) = _side_fits(np.abs(v), center, shape, _offset_distances(shape, spacing), (side,))
    if fit is None:
        raise ValueError("not enough amplitude above the floor to fit a decay rate")
    return DecayFit(*fit)


@dataclass(frozen=True)
class ResolventDecayFit:
    energy: float
    rate: float
    quality: float
    spectrum_distance: float
    n_points: int


def resolvent_decay(op: GridOperator, energy: float) -> ResolventDecayFit:
    """Exponential decay rate of |(H - E)^(-1) delta_y| away from the centre node y.

    Solves one sparse system at y = n // 2 and fits log-amplitude against
    the distance to y, skipping nodes near the boundary and below the
    amplitude floor.  Energies within MIN_SPECTRUM_DISTANCE of an
    eigenvalue are refused as ill-conditioned.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    vals = op.all_eigenvalues() if op.n_unknowns <= DENSE_LIMIT else None
    if vals is not None:
        spectrum_distance = float(np.min(np.abs(vals - energy)))
    else:
        near = spla.eigsh(op.matrix(), k=1, sigma=energy, which="LM", return_eigenvectors=False)
        spectrum_distance = float(np.abs(near[0] - energy))
    if spectrum_distance < MIN_SPECTRUM_DISTANCE:
        raise ValueError(
            f"energy {energy} is within {spectrum_distance:.3g} of the spectrum; "
            "the resolvent solve would be ill-conditioned"
        )
    n = op.n_unknowns
    lu = spla.splu((op.matrix() - energy * sp.identity(n, format="csr")).tocsc())
    grid_idx = np.array(np.unravel_index(np.arange(n), op.shape)).T
    interior = np.ones(n, dtype=bool)
    for k in range(op.dimension):
        margin = int(BOUNDARY_MARGIN * op.shape[k])
        interior &= (grid_idx[:, k] >= margin) & (grid_idx[:, k] < op.shape[k] - margin)
    rhs = np.zeros(n)
    rhs[n // 2] = 1.0
    u = lu.solve(rhs)
    dist = np.linalg.norm(grid_idx - grid_idx[n // 2], axis=1) * op.spacing
    mask = interior & (np.abs(u) > AMPLITUDE_FLOOR) & (dist > 0)
    x, y = dist[mask], np.log(np.abs(u[mask]))
    if x.size < 3:
        raise ValueError("resolvent amplitude decays below the floor too quickly to fit")
    rate, quality = _loglinear_fit(x, y)
    return ResolventDecayFit(float(energy), rate, quality, spectrum_distance, int(x.size))


def resolvent_decay_table(
    op: GridOperator, energies
) -> tuple[list[ResolventDecayFit], bool]:
    """Fits for several energies plus a monotonicity flag.

    The flag is True when the fitted rate strictly increases with the
    distance to the spectrum, the qualitative signature of
    Combes-Thomas-type decay.
    """
    fits = [resolvent_decay(op, float(e)) for e in energies]
    by_dist = sorted(fits, key=lambda f: f.spectrum_distance)
    monotone = all(
        b.rate > a.rate for a, b in zip(by_dist, by_dist[1:])
    )
    return fits, monotone


@dataclass(frozen=True)
class StateDiagnostics:
    energy: float
    ipr: float
    decay_rate: float
    decay_quality: float
    center: int
    in_gap: bool


@dataclass(frozen=True, eq=False)
class LocalizationReport:
    states: tuple[StateDiagnostics, ...]
    gaps: tuple[tuple[float, float], ...]
    gap_median_ipr: float
    bulk_median_ipr: float
    verdict: str  # gap-states-localized | no-gap-states | not-localized
    boundary_max_amplitude: float
    resolvent_checks: tuple[tuple[float, float, float], ...]  # (energy, state rate, resolvent rate)
    params: dict = field(default_factory=dict)

    def gap_states(self) -> list[StateDiagnostics]:
        return [s for s in self.states if s.in_gap]


def localization_report(
    model: RandomPotentialModel,
    couplings: CouplingMap,
    box: float,
    h: float,
    gap_source: GridOperator,
) -> LocalizationReport:
    """Compare states of H in gaps of the reference operator against bulk states.

    Verdict "gap-states-localized" requires the median gap-state IPR to
    exceed ten times the bulk median and at least 90 percent of gap
    states to fit an exponential with quality >= 0.9.  Gaps are those of
    the reference spectrum wider than ten median level spacings.  Also
    cross-checks the lowest RESOLVENT_CHECKS gap-state decay rates against
    the reference resolvent decay at the same energy.
    """
    op = discretize(model, couplings, box, h)
    ref_vals = np.sort(gap_source.all_eigenvalues())
    spacings = np.diff(ref_vals)
    gap_resolution = 10.0 * float(np.median(spacings[spacings > 0]))
    gaps = spectrum_gaps(gap_source, gap_resolution)
    # margin absorbs eigensolver jitter so reference states never classify
    # as sitting inside a gap bounded by their own energy
    gap_margin = 1e-6 * float(ref_vals[-1] - ref_vals[0])
    result = eigenpairs(op)
    boundary = op.boundary_mask()
    rows = np.ascontiguousarray(result.eigenvectors.T)  # eigh's are F-ordered: a free view
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    off = np.abs(norms - 1.0) > 1e-10
    if off.any():
        raise ValueError(f"vector norm {norms[off][0]} is not 1 within 1e-10")
    table = _offset_distances(op.shape, op.spacing)
    sides = ("left", "right") if op.dimension == 1 else ("both",)
    states: list[StateDiagnostics] = []
    boundary_max = 0.0
    for energy, row in zip(result.eigenvalues, rows):
        amp = np.abs(row)
        center = int(np.argmax(amp))
        in_gap = in_any_gap(float(energy), gaps, margin=gap_margin)
        # in d=1 the better-quality side; the first one on a tie
        fits = [f for f in _side_fits(amp, center, op.shape, table, sides) if f is not None]
        rate, quality, _ = max(fits, key=lambda f: f[1]) if fits else (math.nan, 0.0, 0)
        if in_gap:
            boundary_max = max(boundary_max, float(np.max(amp[boundary])))
        states.append(
            StateDiagnostics(float(energy), float(np.sum(row**4)), rate, quality, center, in_gap)
        )
    gap_iprs = [s.ipr for s in states if s.in_gap]
    bulk_iprs = [s.ipr for s in states if not s.in_gap]
    gap_median = float(np.median(gap_iprs)) if gap_iprs else math.nan
    bulk_median = float(np.median(bulk_iprs)) if bulk_iprs else math.nan
    if not gap_iprs:
        verdict = "no-gap-states"
    else:
        quality_frac = np.mean([s.decay_quality >= 0.9 for s in states if s.in_gap])
        localized = (
            bulk_iprs
            and gap_median >= 10.0 * bulk_median
            and quality_frac >= 0.9
        )
        verdict = "gap-states-localized" if localized else "not-localized"
    checks: list[tuple[float, float, float]] = []
    for s in sorted((s for s in states if s.in_gap), key=lambda s: s.energy)[:RESOLVENT_CHECKS]:
        try:
            ref_fit = resolvent_decay(gap_source, s.energy)
        except ValueError:
            continue
        checks.append((s.energy, s.decay_rate, ref_fit.rate))
    return LocalizationReport(
        states=tuple(states),
        gaps=tuple(gaps),
        gap_median_ipr=gap_median,
        bulk_median_ipr=bulk_median,
        verdict=verdict,
        boundary_max_amplitude=boundary_max,
        resolvent_checks=tuple(checks),
        params={"box": box, "h": h, "gap_resolution": gap_resolution},
    )
