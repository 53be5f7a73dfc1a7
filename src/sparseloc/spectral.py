"""Finite-difference probes of localization: spectra, IPR, resolvent decay.

Finite boxes have pure point spectrum by construction, so nothing here
"proves" absence of continuous spectrum; the diagnostics quantify
localization proxies instead: inverse participation ratios, exponential
decay fits of eigenvectors, and off-diagonal resolvent decay at energies
in spectral gaps of the unperturbed operator.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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
    "grid_side",
    "require_dense",
    "require_grid_dimension",
    "discretize",
    "eigenpairs",
    "spectrum_gaps",
    "ipr",
    "decay_rate_fit",
    "resolvent_decay",
    "localization_report",
]

DENSE_LIMIT = 3000
AMPLITUDE_FLOOR = 1e-12
MIN_SPECTRUM_DISTANCE = 1e-6  # resolvent_decay refuses energies closer to the spectrum
BOUNDARY_MARGIN = 0.15  # resolvent_decay fits nodes at least this share of a side inside
RESOLVENT_CHECKS = 3  # localization_report cross-checks this many of the lowest gap states
MIN_GRID_SIDE = 3  # grid nodes per side: the fewest that any decay fit needs


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
        require_grid_dimension(self.dimension)
        if len(self.shape) != self.dimension:
            raise ValueError("shape rank must match dimension")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        n = int(np.prod(self.shape))
        if self.potential.shape != (n,):
            raise ValueError("potential must be flat with one value per node")

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

    def all_eigenvalues(self) -> np.ndarray:
        """Full spectrum, ascending, with `scipy.linalg.eigvalsh`'s bits (refuses oversized
        operators)."""
        if self._eigen_cache is None:
            require_dense(self.n_unknowns)
            self._eigen_cache = (_symmetric_eigen(self, vectors=False)[0],)
        return self._eigen_cache[0]

    def boundary_mask(self) -> np.ndarray:
        idx = np.unravel_index(np.arange(self.n_unknowns), self.shape)
        mask = np.zeros(self.n_unknowns, dtype=bool)
        for k in range(self.dimension):
            mask |= (idx[k] == 0) | (idx[k] == self.shape[k] - 1)
        return mask


# LAPACK dsyevr solves a matrix unscaled when its largest |entry| lies in [rmin, rmax] (or is 0);
# these are its own expressions, with dlamch's safe minimum 2^-1022 and precision 2^-52
_SAFMIN = sys.float_info.min
_SMLNUM = _SAFMIN / sys.float_info.epsilon
_UNSCALED = (math.sqrt(_SMLNUM), min(math.sqrt(1.0 / _SMLNUM), 1.0 / math.sqrt(math.sqrt(_SAFMIN))))


def _symmetric_eigen(op: GridOperator, vectors: bool) -> tuple:
    """(eigenvalues, eigenvectors or None, LAPACK solver) of `op`, bit-equal to
    scipy.linalg.eigh or eigvalsh of its dense matrix.

    Those call dsyevr, which reduces the matrix to tridiagonal form, a no-op on a d=1 operator
    (every reflector is the identity), and then runs dstemr (vectors) or dsterf (values only).
    So a d=1 operator goes to those two solvers directly: solver "stemr" or "sterf".  The dense
    call (solver "syevr") stays for d=2, for a matrix that dsyevr rescales first, and for a
    tridiagonal solver that fails, since dsyevr then falls back to bisection.
    """
    import scipy.linalg
    a = op.matrix()
    if op.dimension == 1:
        d, e = a.diagonal(), a.diagonal(-1)
        top = max(np.abs(d).max(), np.abs(e).max(initial=0.0))
        if top == 0.0 or _UNSCALED[0] <= top <= _UNSCALED[1]:
            try:
                if vectors:
                    return (*scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr"), "stemr")
                return scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf"), None, "sterf"
            except np.linalg.LinAlgError:
                pass
    dense = a.toarray()
    vals, vecs = scipy.linalg.eigh(dense) if vectors else (scipy.linalg.eigvalsh(dense), None)
    return vals, vecs, "syevr"


def require_grid_dimension(d: int) -> None:
    """ValueError unless the grid operator supports dimension `d` (1 or 2)."""
    if d not in (1, 2):
        raise ValueError(f"grid operators support d in {{1, 2}}, not d={d}")


def grid_side(box: float, h: float) -> int:
    """Nodes per side, round(2 box / h) - 1; ValueError below MIN_GRID_SIDE or when
    2 box / h overflows."""
    if h <= 0:
        raise ValueError("spacing must be positive")
    ratio = 2.0 * box / h
    if ratio == math.inf:
        raise ValueError(f"box {box:g} at spacing {h:g} has more grid nodes per side than a float holds")
    n_side = int(round(ratio)) - 1
    if n_side < MIN_GRID_SIDE:
        raise ValueError(f"box {box:g} at spacing {h:g} has {n_side} grid nodes per side, "
                         f"fewer than {MIN_GRID_SIDE}")
    return n_side


def require_dense(n_unknowns: int) -> None:
    """ValueError when `n_unknowns` exceed DENSE_LIMIT, above which no full spectrum is taken."""
    if n_unknowns > DENSE_LIMIT:
        raise ValueError(f"{n_unknowns} unknowns exceed the dense limit {DENSE_LIMIT}; "
                         "probe gaps on a smaller box")


def discretize(
    model: RandomPotentialModel, couplings: CouplingMap, box: float, h: float
) -> GridOperator:
    """Sample the random potential on a centered box and assemble the operator.

    Potential values are taken pointwise at nodes (O(h) quadrature error
    for rough profiles).  The box plus one support radius must lie inside
    the sampled coupling window.
    """
    n_side = grid_side(box, h)
    d = model.dimension
    require_grid_dimension(d)
    needed = box * math.sqrt(d) + model.max_support_radius()
    require_window(couplings.window_radius, needed, " needed by the box corner plus support")
    shape = (n_side,) * d
    origin = np.full(d, -box + h)
    op = GridOperator(d, shape, h, origin, np.zeros(int(np.prod(shape))))
    nodes = op.node_coordinates()
    op.potential = np.asarray(evaluate_potential(model, couplings, nodes))
    return op


@dataclass(frozen=True, eq=False)
class SpectralWindowResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, unit l2 norm
    residuals: np.ndarray
    method: str  # always "dense": every eigenpair, from a direct solver
    norm_bound: float
    solver: str  # LAPACK's "stemr" (d=1) or "syevr" (d=2, a rescaled matrix, a stemr failure)

    @property
    def residual_ok(self) -> bool:
        return bool(np.all(self.residuals <= 1e-8 * self.norm_bound))


def eigenpairs(op: GridOperator) -> SpectralWindowResult:
    """Full spectrum of `op`, bit-equal to scipy.linalg.eigh of its dense matrix, with each
    pair's residual.

    Refuses operators above DENSE_LIMIT unknowns (`require_dense`), like
    `all_eigenvalues` and `resolvent_decay`.
    """
    require_dense(op.n_unknowns)
    vals, vecs, solver = _symmetric_eigen(op, vectors=True)
    r = op.matrix() @ vecs
    r -= vecs * vals
    residuals = np.sqrt(np.einsum("ij,ij->j", r, r))
    return SpectralWindowResult(vals, vecs, residuals, "dense", op.norm_bound(), solver)


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


def ipr(v: np.ndarray) -> float | np.ndarray:
    """Inverse participation ratio sum v_j^4 of a unit vector, or of each row
    of a (states x nodes) matrix: a float for a vector, an array for a matrix."""
    v = np.asarray(v, dtype=float)
    norms = np.atleast_1d(np.sqrt(np.einsum("...j,...j->...", v, v)))
    off = np.abs(norms - 1.0) > 1e-10
    if off.any():
        raise ValueError(f"vector norm {norms[off][0]} is not 1 within 1e-10")
    sums = np.sum(v**4, axis=-1)
    return float(sums) if v.ndim == 1 else sums


@dataclass(frozen=True)
class DecayFit:
    rate: float  # per unit length
    quality: float  # coefficient of determination of the log fit
    n_points: int


def _loglinear_fits(x: np.ndarray, y: np.ndarray, counts) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares lines through consecutive segments of (x, y), counts[k] points in
    segment k: (-slope, R^2) per segment.  np.polyfit(x, y, 1)'s own steps on each
    segment, so bit-equal to it, without its per-call overhead."""
    counts = np.asarray(counts, dtype=np.intp)
    seg = np.repeat(np.arange(counts.size), counts)
    ends = np.cumsum(counts)
    bounds = list(zip((ends - counts).tolist(), ends.tolist()))
    # column norms of vander(x, 2): its (lhs * lhs).sum(axis=0) adds in order, as add.at does
    sumsq = np.zeros(counts.size)
    np.add.at(sumsq, seg, x * x)
    scale = np.sqrt(np.column_stack([sumsq, counts.astype(float)]))
    lhs = np.empty((x.size, 2))
    lhs[:, 0] = x / scale[seg, 0]
    lhs[:, 1] = 1.0 / scale[seg, 1]
    coef = np.empty((counts.size, 2))
    mean = np.empty(counts.size)
    for k, (a, b) in enumerate(bounds):
        coef[k], _, rank, _ = np.linalg.lstsq(lhs[a:b], y[a:b], (b - a) * np.finfo(float).eps)
        if rank < 2:
            warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=3)
        mean[k] = y[a:b].sum() / (b - a)
    slope, intercept = (coef / scale).T
    residual = (y - (slope[seg] * x + intercept[seg])) ** 2
    deviation = (y - mean[seg]) ** 2
    ss_res = np.array([residual[a:b].sum() for a, b in bounds])
    ss_tot = np.array([deviation[a:b].sum() for a, b in bounds])
    quality = np.zeros(counts.size)
    spread = ss_tot > 0
    quality[spread] = 1.0 - ss_res[spread] / ss_tot[spread]
    return -slope, quality


def _offset_distances(shape: tuple[int, ...], spacing: float) -> np.ndarray:
    """|k| * spacing for every node offset k, at index k + shape - 1 on each axis."""
    grids = np.meshgrid(*(np.arange(1 - s, s) for s in shape), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1)
    return (np.linalg.norm(offsets, axis=1) * spacing).reshape(grids[0].shape)


_ON_SIDE = {"left": np.less_equal, "right": np.greater_equal}  # node against centre
_FIT_BLOCK = 1 << 14  # (states x nodes) entries per block of _decay_fits: bounds its temporaries


def _decay_fits(
    amp: np.ndarray, centers: np.ndarray, shape: tuple[int, ...], spacing: float, sides
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decay fits of many states at once: (rate, quality, points), each (states, sides).

    Row s of `amp` holds |psi_s| on the C-ordered grid `shape`.  Per side (in one
    dimension 'left' or 'right': the nodes up to or from centers[s]; 'both': every
    node), log|psi_s| is fitted against the distance to centers[s] over the nodes
    above AMPLITUDE_FLOOR.  Below three such points the rate is NaN and the quality 0.
    """
    table = _offset_distances(shape, spacing).ravel()
    # flat table index of node offset k is pos[node] - pos[center] + pos of (shape - 1)
    wide = tuple(2 * s - 1 for s in shape)
    pos = np.ravel_multi_index(np.unravel_index(np.arange(amp.shape[1]), shape), wide)
    middle = np.ravel_multi_index(tuple(s - 1 for s in shape), wide)
    rate = np.full((amp.shape[0], len(sides)), np.nan)
    quality = np.zeros(rate.shape)
    points = np.zeros(rate.shape, dtype=np.intp)
    node = np.arange(amp.shape[1])
    block = max(1, _FIT_BLOCK // max(1, amp.shape[1]))
    for lo in range(0, amp.shape[0], block):
        a, c = amp[lo:lo + block], centers[lo:lo + block]
        keep = a > AMPLITUDE_FLOOR
        for k, side in enumerate(sides):
            mask = keep if side == "both" else keep & _ON_SIDE[side](node, c[:, None])
            count = np.count_nonzero(mask, axis=1)
            points[lo:lo + len(a), k] = count
            fitted = count >= 3
            state, at = np.nonzero(mask & fitted[:, None])
            x = table[pos[at] - pos[c[state]] + middle]
            done = lo + np.flatnonzero(fitted)
            rate[done, k], quality[done, k] = _loglinear_fits(x, np.log(a[state, at]), count[fitted])
    return rate, quality, points


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
    if not 0 <= center < math.prod(shape):
        raise ValueError(f"center {center} is not a node of the grid {shape}")
    rate, quality, points = _decay_fits(np.abs(v)[None], np.array([center]), shape, spacing, (side,))
    if points[0, 0] < 3:
        raise ValueError("not enough amplitude above the floor to fit a decay rate")
    return DecayFit(float(rate[0, 0]), float(quality[0, 0]), int(points[0, 0]))


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
    eigenvalue are refused as ill-conditioned; the distance comes from the
    full spectrum, so operators above DENSE_LIMIT unknowns are refused too.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    spectrum_distance = float(np.min(np.abs(op.all_eigenvalues() - energy)))
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
    (rate,), (quality,) = _loglinear_fits(x, y, [x.size])
    return ResolventDecayFit(float(energy), float(rate), float(quality), spectrum_distance,
                             int(x.size))


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
    gap_median_ipr: float
    bulk_median_ipr: float
    verdict: str  # gap-states-localized | no-gap-states | not-localized
    boundary_max_amplitude: float
    resolvent_checks: tuple[tuple[float, float, float], ...]  # (energy, state rate, resolvent rate)


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
    if not result.residual_ok:
        raise ValueError(f"eigenpair residual {result.residuals.max():.3g} exceeds "
                         f"1e-8 times the norm bound {result.norm_bound:.3g}")
    rows = np.ascontiguousarray(result.eigenvectors.T)  # LAPACK's are F-ordered: a free view
    iprs = ipr(rows)
    energies = result.eigenvalues
    amp = np.abs(rows)
    centers = np.argmax(amp, axis=1)
    in_gap = np.zeros(energies.size, dtype=bool)
    for lo, hi in gaps:
        in_gap |= (lo + gap_margin < energies) & (energies < hi - gap_margin)
    sides = ("left", "right") if op.dimension == 1 else ("both",)
    rates, qualities, points = _decay_fits(amp, centers, op.shape, op.spacing, sides)
    rate, quality = rates[:, 0], qualities[:, 0]
    if len(sides) == 2:  # the better-quality side; the left one on a tie
        right = (points[:, 1] >= 3) & ((points[:, 0] < 3) | (qualities[:, 1] > quality))
        rate = np.where(right, rates[:, 1], rate)
        quality = np.where(right, qualities[:, 1], quality)
    boundary_max = float(amp[in_gap][:, op.boundary_mask()].max(initial=0.0))
    states = [
        StateDiagnostics(*fields)
        for fields in zip(energies.tolist(), iprs.tolist(), rate.tolist(), quality.tolist(),
                          centers.tolist(), in_gap.tolist())
    ]
    gap_iprs, bulk_iprs = iprs[in_gap], iprs[~in_gap]
    gap_median = float(np.median(gap_iprs)) if gap_iprs.size else math.nan
    bulk_median = float(np.median(bulk_iprs)) if bulk_iprs.size else math.nan
    if not gap_iprs.size:
        verdict = "no-gap-states"
    else:
        quality_frac = np.mean(quality[in_gap] >= 0.9)
        localized = (
            bulk_iprs.size
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
        gap_median_ipr=gap_median,
        bulk_median_ipr=bulk_median,
        verdict=verdict,
        boundary_max_amplitude=boundary_max,
        resolvent_checks=tuple(checks),
    )
