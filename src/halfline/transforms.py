"""Forward and inverse transforms adapted to the boundary forms.

For a validated problem with adjointed characteristic matrix M and
determinant Delta, the forward transforms of a datum f are

    F_0[f](lam) = fhat(lam) / (2 pi),
    F_k[f](lam) = sum_l w_l(lam) fhat(alpha^(N+l-k) lam),    k = 1..N,

with alpha = exp(2 pi i / n), fhat the half-line Fourier transform over the
support, and rational weights

    w_l(lam) = sum_j (-1)^((m-1)(l+j)) det X[l,j](mu) M[1,j](lam)
               / (2 pi Delta(mu)),        mu = alpha^(N+1-k) lam.

The transforms F_k[Sf] of Sf = (-i d/dx)^n f take the same form with fhat
replaced by the transform of Sf, which integration by parts gives from
fhat itself, f being compactly supported, with u_j = f(j)(0):

    int_0^L exp(-i mu x) Sf(x) dx = mu^n fhat(mu)
                                    - sum_(j<n) (-i)^(j+1) u_j mu^(n-1-j).

Since (alpha^p lam)^n = lam^n, F_k[Sf] - lam^n F_k[f] is the weighted sum
of the boundary polynomial alone: the remainder of :mod:`halfline.spectral`.

The inverse map integrates exp(i lam x) F_k over the matching contour
components and sums.  For F = F[f] the real-line component carries the
whole of f: the sector components vanish identically for x > 0, which the
verification suite checks directly.

Numerical layout: the half-line Fourier transform is evaluated by cached
composite Gauss panels over the support, resolution chosen per batch from
max |mu|; the datum owns the cache (:meth:`InitialDatum.fhat`).  The
panels of a level are equal and their midpoints equally spaced,
m_p = m_0 + 2hp, so with D = 2hS node k of panel (aB + b)S + r is
m_0 + aBD + bD + 2hr + h x_k and its phase is a product of four small
tables: exp(-i mu (m_0 + aBD)) exp(-i mu bD) exp(-i mu 2hr)
exp(-i mu h x_k).  The first three offsets are equally spaced, so their
tables are powers of one factor each.  A batch then costs #mu
(ceil(order / 2) + 4) complex exponentials at complex mu, one more at
real mu, at every level, plus #mu S order multiplies for the outer
product of the last two tables, #mu AB for the fine fold factors and
about #mu (A + B + S) for the powers, with S near sqrt(panels / 4) and
A, B near sqrt(panels / S), instead of #mu panels order exponentials for
the same quadrature rule; the matrix product with the real weights runs
in real arithmetic.  At real mu (the real line's central segment and
tail scan) node j of a fold and its mirror node, at -+z_j from the
fold's centre, give (w_j + w_j') cos(mu z_j) - i (w_j - w_j') sin(mu
z_j): two real products of half the width with the level's even and odd
weights, over the exponentials of the fold's first half, which cost no
more per mu.

The exponentials depend on mu and the level alone, not on the datum, so a
:class:`~halfline.datum.DataStack` of data with one support is transformed
in one pass: its weights stack to d AB rows of the one matrix product, at
the level its largest base rate asks for.  Every method that takes a datum
takes a stack too and keeps its data axis in front; the real-line tail
scan runs until every datum's block is small, a ray is cut at the largest
junction value, and the monomial tails take one coefficient column per
datum.  A single datum runs the same code on its own transform, as a
stack of one without the axis, so its values do not depend on whether
stacks exist.

The same pass can carry the spectral representation
(:meth:`TransformPair.components` with ``represent``): by parts,
lam^(-n) F_0[Sf] is F_0[f] minus its first n monomials, so the two
real-line integrands differ by monomials alone and one tail scan serves
both sets of rows; each set restores its own powers (the inversion n+1,
the representation the (n+1)-th alone) and runs its own central segment,
indented above the representation's pole at 0.  Every sector ray carries
both sets from one fhat evaluation per node, cut at the largest junction
value over all rows.

Every component integral is sized by the integrand's exponential type:
exp(i lam x) F_k(lam) is a rational weighting of
int_0^L exp(i lam (x - alpha^p y)) f(y) dy, so its phase rate is at most
max |x - alpha^p y| over the points and the support
(:meth:`TransformPair.phase_rate`), which is x_max rather than x_max + L
for the real-line component at points inside the support.  For a problem
that lam -> -conj(lam) maps onto itself (:attr:`TransformPair.mirrored`)
sector component N+1-k is the conjugate of component k, and
:meth:`TransformPair.sector_components` integrates only one of each pair.

Every component integral runs on the engine of :mod:`halfline.quadrature`
(``component_nodes`` plus ``apply_phase``).  The real-line component
(:meth:`TransformPair.real_line_component`, which also serves the spectral
checks) is a central segment, flat or indented above the origin, plus
power-subtracted tails: the leading monomials of the integrand's
large-lambda expansion, for the inversion the first n+1 terms of
fhat ~ sum_j f(j)(0) / (i lam)^(j+1), are removed, the subtracted remainder
decays faster than any power and is summed in doubling blocks, and the
removed terms are restored to rounding on the vertical rays +-r0 + i s,
s >= 0, where exp(i lam x) decays.  The sector components run on the t = 0
contour system of :func:`halfline.contours.turn_axis_rays`, where a sector
ray on the real axis (reverse-time problems) has turned into its sector;
every sector ray is truncated with an exponential decay model.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .boundary import complementary_forms
from .charmatrix import CharMatrix
from .contours import build_contours, turn_axis_rays
from .errors import NonpositiveX, ToleranceNotMet
from .problems import validate
from .quadrature import (_DENSITY, _ORDER, ExpDecay, PathSegment,
                         QuadratureParams, _gl, apply_phase, component_nodes,
                         segment_nodes)

__all__ = ["SupportTransform", "TransformPair"]

# cap on the phase entries per chunk, mu x (d AB folds + S order) for a
# stack of d data, so that a chunk's temporaries stay in cache: one recon
# cycle's fhat calls, replayed on warm levels on a 2-core x86 machine, took
# the same time from 60k to 160k entries and about 30% longer at 250k.  The
# tracemalloc peak of robin-4's largest sector batch (2 x 6792 mu, warm
# level) is 5.1 MB here, 9.5 MB at 250k entries, and 4.9 MB for a stack
# of three data
_CHUNK_BUDGET = 120_000
# highest resolution level: |mu| up to base * 2**_MAX_LEVEL is resolved
_MAX_LEVEL = 16


class SupportTransform:
    """Cached quadrature for int_0^L exp(-i mu x) g(x) dx over a compact
    support, vectorized over mu with resolution levels in powers of two.

    Level l splits [0, L] into equal Gauss-Legendre panels, enough for
    |mu| <= base * 2**l.  Because the panels are equal, with half-width h
    and equally spaced midpoints, the folds of S panels have midpoints
    m_qS = m_0 + qD, D = 2hS, and with q = aB + b node k of panel
    qS + r is m_0 + aBD + bD + 2hr + h x_k.  Its phase is a product of
    four factors:

        fhat(mu) = sum_a exp(-i mu (m_0 + aBD)) sum_b exp(-i mu bD)
                   sum_(r,k) exp(-i mu 2hr) exp(-i mu h x_k) w_k h g(node).

    The coarse, fine and step offsets are arithmetic progressions, so
    each of their tables, of A, B near the square root of the number of
    folds, and S entries, is exp(z g_0) times the powers of exp(z d)
    (:func:`_powers`): two exponentials per mu for the coarse table, one
    for the fine and the step tables, which start at 0, and two for the
    real path's steps about the fold centre.  The Gauss factors take
    ceil(order / 2) exponentials (the Gauss nodes come in pairs +-x_k and
    exp(-z) = 1 / exp(z)).  So a batch costs 16 exponentials per complex
    mu and 17 per real mu at order 24, at every level: on robin-4's recon
    datum at level 4 one exponential per table entry took 32, one per fold
    53.  Power r of a chain carries about r eps of relative rounding, with
    r < max(A, B, S) (r <= 31 on that datum at level 8, where S = 32),
    and its phase error is that of evaluating exp(z r d) directly.  The
    outer product of the step and Gauss factors, S order multiplies,
    meets the weights in one matrix product, real because g is
    real-valued; the fine factors, AB multiplies, weight its AB rows and
    the coarse factors the sums over b.  The folds are padded to A x B
    with zero weights.  The fold rule S = sqrt(panels / 4) was sized when
    the fold tables were exponentials; of the work left per mu, S order +
    AB (about panels / S) multiplies are least near S = sqrt(panels /
    order), but timing the fhat calls of a cycle of each benchmark
    workload for S = sqrt(panels / c) (one thread, 2-core x86, the matrix
    product dominating) found no c better throughout: c = 16 took recon's
    from 40-46 to 38-40 ms and evolve's from 30-36 to 38-41 ms, so the
    rule is kept.  The equal-panel invariant is what makes the inner
    factors common to all folds; a non-uniform panel layout would break
    the factorization.

    ``g`` must be real-valued (a complex one raises ``TypeError``).  It
    may be vector-valued: g(x) of shape (d, len(x)) stands for d data of
    one support, whose weights stack to d AB rows of the one real matrix
    product, so every exponential table serves all d; the transform then
    has a leading data axis, shape (d,) + mu.shape.
    ``base_rate`` sets the level-0 resolution floor in rad per unit x, so
    integrands with internal structure sharper than the lowest mu (a narrow
    bump, say) stay resolved at every level; 64 / support is the least
    floor.  The panels hold the quadrature's one Gauss rule.  A batch
    whose |mu| exceeds the top level raises :class:`ToleranceNotMet`.  The
    per-level cache is filled under a lock, so threads sharing the
    transform evaluate g once per level.
    """

    def __init__(self, g, support: float, base_rate: float):
        self.g = g
        self.L = float(support)
        self.base = max(64.0 / self.L, float(base_rate))
        self._levels: dict[int, tuple] = {}
        self._lock = threading.Lock()

    def _level_for(self, mu_max: float) -> int:
        if mu_max <= self.base:
            return 0
        level = int(math.ceil(math.log2(mu_max / self.base)))
        if level > _MAX_LEVEL:
            raise ToleranceNotMet(
                f"|mu| up to {mu_max:.6g} exceeds the top resolution level "
                f"{_MAX_LEVEL} (|mu| <= {self.base * 2 ** _MAX_LEVEL:.6g})")
        return level

    def _nodes(self, level: int) -> "_Level":
        """The :class:`_Level` of one resolution level, built on first
        use."""
        with self._lock:
            if level not in self._levels:
                cap = self.base * 2 ** level
                panels = int(math.ceil(cap * self.L * _DENSITY / (2 * math.pi * _ORDER)))
                panels = max(panels, 2)
                x, w = _gl(_ORDER)
                edges = np.linspace(0.0, self.L, panels + 1)
                half = 0.5 * (edges[1] - edges[0])
                mid = 0.5 * (edges[:-1] + edges[1:])
                nodes = (mid[:, None] + half * x[None, :]).ravel()
                values = self.g(nodes)
                if np.iscomplexobj(values):
                    raise TypeError("SupportTransform needs a real-valued g")
                lead = values.shape[:-1]
                wg = (half * w) * values.reshape(lead + (panels, _ORDER))
                # S = sqrt(panels / 4): see the class docstring's fold rule
                fold = max(1, round(math.sqrt(panels / 4)))
                # the fold midpoints m_0 + 2h S q are equally spaced too:
                # q = aB + b, with B near sqrt(rows), takes tables of A + B
                # entries for them instead of rows
                fine = max(1, round(math.sqrt(-(-panels // fold))))
                coarse = -(-panels // (fold * fine))
                rows = coarse * fine
                wg = np.concatenate(
                    [wg, np.zeros(lead + (rows * fold - panels, _ORDER))],
                    axis=-2).reshape(lead + (rows, fold * _ORDER))
                # a fold's node j and node width - 1 - j sit at -+z from
                # its centre
                width = fold * _ORDER
                first = wg[..., :-(-width // 2)]
                mirror = wg[..., ::-1][..., :first.shape[-1]]
                even, odd = first + mirror, first - mirror
                if width % 2:  # the centre node of a fold of odd width
                    even[..., -1] = first[..., -1]
                    odd[..., -1] = 0.0
                spacing = 2.0 * half * fold
                self._levels[level] = _Level(
                    mid[0] + spacing * fine * np.arange(coarse),
                    spacing * np.arange(fine), 2.0 * half * np.arange(fold),
                    half * x, wg, even, odd)
            return self._levels[level]

    def __call__(self, mu) -> np.ndarray:
        mu = np.atleast_1d(np.asarray(mu, dtype=complex))
        level = self._nodes(self._level_for(float(np.abs(mu).max(initial=0.0))))
        lead = level.wg.shape[:-2]
        coarse, fine = level.coarse, level.fine
        inner_of = self._complex_inner
        if not mu.imag.any():
            # the fold centres lie h (S - 1) past the fold midpoints
            coarse = coarse + 0.5 * level.step[-1]
            inner_of = self._real_inner
        flat = -1j * mu.ravel()
        out = np.empty(lead + (flat.size,), dtype=complex)
        width = level.wg.shape[-1]
        chunk = max(64, _CHUNK_BUDGET // (level.wg.size // width + width))
        for i in range(0, flat.size, chunk):
            z = flat[i:i + chunk]
            inner = inner_of(level, z).reshape(lead + (coarse.size, fine.size, -1))
            inner *= _powers(fine, z)
            out[..., i:i + chunk] = (_powers(coarse, z)
                                     * inner.sum(axis=-2)).sum(axis=-2)
        return out.reshape(lead + mu.shape)

    @staticmethod
    def _complex_inner(level: "_Level", z: np.ndarray) -> np.ndarray:
        """sum over each fold's nodes of exp(z (step[r] + gauss[k])) times
        the weights, for z = -i mu: (rows, len(z)), every datum's rows in
        turn."""
        width = level.wg.shape[-1]
        # the Gauss row is odd about its centre: exponentials for its first
        # ceil(order / 2) entries, reciprocals for the mirrored rest
        half = _ORDER // 2
        left = np.exp(np.multiply.outer(level.gauss[:_ORDER - half], z))
        phase = np.concatenate([left, 1.0 / left[:half][::-1]])
        table = _powers(level.step, z)[:, None, :] * phase
        # the weights are real, so one real matrix product over the
        # interleaved real and imaginary parts of the table does the
        # work of a complex one with half the multiplies, for every
        # datum of a stack at once
        wg = level.wg.reshape(-1, width)
        return (wg @ table.reshape(width, -1).view(float)).view(complex)

    @staticmethod
    def _real_inner(level: "_Level", z: np.ndarray) -> np.ndarray:
        """:meth:`_complex_inner` about each fold's centre, for real mu.

        A fold's node j = r order + k sits at z_j = step[r] - h (S - 1) +
        gauss[k] from its centre and node width - 1 - j at -z_j, so at real
        mu the pair gives (w_j + w_j') cos(mu z_j) - i (w_j - w_j') sin(mu
        z_j): two real matrix products of half the width, with the
        level's even and odd weights, over exp(-i mu z_j) of the fold's
        first half alone."""
        half = _ORDER // 2
        cols = level.even.shape[-1]
        left = np.exp(np.multiply.outer(level.gauss[:_ORDER - half], z))
        # |exp(-i mu x)| = 1: the mirrored half are conjugates
        phase = np.concatenate([left, left[:half][::-1].conj()])
        shift = level.step[:-(-cols // _ORDER)] - 0.5 * level.step[-1]
        table = (_powers(shift, z)[:, None, :]
                 * phase).reshape(-1, z.size)[:cols]
        rows = level.even.size // cols
        inner = np.empty((rows, z.size), dtype=complex)
        inner.real = level.even.reshape(rows, cols) @ np.ascontiguousarray(
            table.real)
        inner.imag = level.odd.reshape(rows, cols) @ np.ascontiguousarray(
            table.imag)
        return inner


def _powers(row: np.ndarray, z: np.ndarray) -> np.ndarray:
    """exp(row (x) z), shape (len(row), len(z)), for an equally spaced
    row g_r = g_0 + r d: exp(z g_0) times the powers exp(z d)^r, two
    exponentials per z, one where g_0 = 0 and none more for a row of one
    entry.  Rows [2^j, 2^(j+1)) are rows [0, 2^j) times exp(z d)^(2^j),
    itself by squaring, so power r carries about r eps of relative
    rounding from its products, and the rounding of z d, r times over,
    is the phase error of evaluating exp(z r d) directly."""
    out = np.empty((row.size, z.size), dtype=complex)
    out[0] = np.exp(row[0] * z) if row[0] else 1.0
    if row.size > 1:
        power = np.exp((row[1] - row[0]) * z)
        done = 1
        while done < row.size:
            take = min(done, row.size - done)
            np.multiply(out[:take], power, out=out[done:done + take])
            done += take
            if done < row.size:
                power *= power
    return out


class _Level(NamedTuple):
    """One resolution level of a :class:`SupportTransform`: node k of panel
    (aB + b)S + r is coarse[a] + fine[b] + step[r] + gauss[k], with
    weight w_k h g = wg[..., aB + b, r order + k] (a leading data axis for
    a vector-valued g).  ``even`` and ``odd`` hold, for each of a fold's
    first ceil(S order / 2) nodes j, w_j + w_j' and w_j - w_j' with
    its mirror node j' = S order - 1 - j; the centre node of a fold of
    odd width is its own mirror, with even w_j and odd 0."""

    coarse: np.ndarray
    fine: np.ndarray
    step: np.ndarray
    gauss: np.ndarray
    wg: np.ndarray
    even: np.ndarray
    odd: np.ndarray


def _polyval(coeffs, mu) -> np.ndarray:
    """np.polyval over the last axis of ``coeffs``, highest power first,
    for every row of its leading data axes: shape coeffs.shape[:-1] +
    mu.shape, by np.polyval's own Horner steps."""
    out = np.zeros_like(mu)
    for c in np.moveaxis(coeffs, -1, 0):
        out = out * mu + np.reshape(c, np.shape(c) + (1,) * mu.ndim)
    return out


def _apply(xs: np.ndarray, nodes, wf: np.ndarray) -> np.ndarray:
    """:func:`apply_phase` of wf over its last (node) axis, any leading
    axes kept in front: shape wf.shape[:-1] + (len(xs),).  A 1-D wf
    reaches apply_phase as it is, the leading axes of a 2-D one as its
    columns."""
    flat = wf.reshape(-1, wf.shape[-1]) if wf.ndim > 2 else wf
    return apply_phase(xs, nodes, flat.T).T.reshape(wf.shape[:-1] + (xs.size,))


def _monomial_sum(monomials):
    """lam -> sum of b lam^(-p) over the pairs (p, b) of ``monomials``, any
    data axis of the coefficients b in front (0 for no pairs)."""
    def mono(lam):
        return sum(np.multiply.outer(b, lam ** (-float(p)))
                   for p, b in monomials)
    return mono


def _real_axis_monomial_tails(r0: float, xs: np.ndarray, powers,
                              params: QuadratureParams) -> np.ndarray:
    """int exp(i lam x) lam^(-p) over the real line outside [-r0, r0], for
    every x of xs (rows) and p of ``powers`` (columns).

    The right tail closes in the first quadrant onto the vertical ray
    lam = r0 + i s, s >= 0, where exp(i lam x) = exp(i r0 x) exp(-s x), and
    one set of nodes serves every x and p.  The panels resolve the decay
    rate x_max and the pole at lam = 0, r0 from the path.  The ray stops
    where the integrated envelope r0^-p exp(-s x_min) / x_min falls to the
    rounding of a tail, whose size is near r0^-p / (x + p / r0).  The left
    tail is the mirror of the right one: for real x > 0 it equals
    (-1)^p conj of the right tail.
    """
    x_min, x_max = float(xs.min()), float(xs.max())
    p = np.asarray(powers, dtype=float)
    scale = x_max + p.max() / r0
    stop = math.log(scale / (np.finfo(float).eps * x_min)) / x_min
    nodes = segment_nodes(PathSegment.ray(r0, math.pi / 2, 0.0, stop), params,
                          osc=lambda s: x_max + 8.0 / (r0 + s))
    lam, w = nodes
    right = apply_phase(xs, nodes, w[:, None] * lam[:, None] ** -p)
    return right + (-1.0) ** p * np.conj(right)


class TransformPair:
    """Forward/inverse transform machinery for one half-line problem."""

    def __init__(self, problem, params: QuadratureParams | None = None):
        self.problem = validate(problem)
        self.n = problem.order
        self.a = problem.a
        self.N = problem.count
        self.m = self.n - self.N
        self.forms = complementary_forms(self.n, problem.boundary_matrix)
        self.cm = CharMatrix(self.n, self.forms.B_star)
        self.R = self.cm.choose_radius()
        self.contours = build_contours(problem, self.R)
        self.params = params or QuadratureParams()
        self.alpha = np.exp(2j * np.pi / self.n)

    # -- kernels ----------------------------------------------------------
    def kernel_weights(self, k: int, lam):
        """Argument multipliers alpha^(N+l-k), shaped to broadcast against
        lam, and weights w_l(lam), l=1..m, on a leading axis: row one of
        M(lam) times the cofactor matrix A(mu), over 2 pi Delta(mu).  The
        inverse kernel of component k is sum_l w_l exp(-i mult_l lam x)."""
        if not 1 <= k <= self.N:
            raise ValueError(f"sector index k must be in 1..{self.N}, got {k}")
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        mu = self.alpha ** (self.N + 1 - k) * lam
        M = self.cm.eval_matrix(mu)
        A = self.cm.cofactors(mu, M)
        # Delta = (A M)[0, 0], from the same products as the weights
        dl = self.cm.guard_delta(mu, (A[..., 0, :] * M[..., :, 0]).sum(axis=-1))
        row = self.cm.eval_matrix(lam)[..., 0, :, None]
        weights = np.moveaxis((row * A).sum(axis=-2), -1, 0)
        mults = self._multipliers(k)
        return mults.reshape((-1,) + (1,) * lam.ndim), weights / (2.0 * np.pi * dl)

    def _multipliers(self, k: int) -> np.ndarray:
        """alpha^(N+l-k), l = 1..m: the arguments of fhat in F_k, over lam."""
        return self.alpha ** (self.N + np.arange(1, self.m + 1) - k)

    def phase_rate(self, k: int, xs, support: float) -> float:
        """Bound on the phase rate of exp(i lam x) F_k(lam) over lam, for
        every x of xs.

        F_k is a rational weighting of fhat(alpha^p lam), p = 0 for k = 0,
        and exp(i lam x) fhat(alpha^p lam) = int_0^L exp(i lam (x - alpha^p
        y)) f(y) dy, so the rate is max |x - alpha^p y| over y in [0, L]:
        convex in x and y, it peaks where x is x_min or x_max and y is 0
        or L.  The polynomial part of F_k[Sf] has y = 0's rate x.
        """
        xs = np.asarray(xs, dtype=float)
        ends = np.array([xs.min(), xs.max()])
        mults = np.ones(1) if k == 0 else self._multipliers(k)
        far = np.abs(ends[:, None] - mults[None, :] * support).max()
        return max(float(ends[1]), float(far))

    def forward(self, datum, k: int, lam, *, applied: bool = False) -> np.ndarray:
        """F_k[f](lam), or F_k[Sf](lam) with ``applied=True``, for a datum
        (shape of lam) or a :class:`~halfline.datum.DataStack` (a leading
        data axis).

        Sf = (-i d/dx)^n f is the spatial operator applied to f.  Its
        half-line transform follows from fhat by parts, f being compactly
        supported, with u_j = f(j)(0):

            int_0^L exp(-i mu x) Sf(x) dx
                = mu^n fhat(mu) - sum_(j<n) (-i)^(j+1) u_j mu^(n-1-j),

        so both transforms share the datum's one quadrature.
        """
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        if applied:
            by_parts = self._by_parts(datum)

            def hat(mu):
                return by_parts(mu, datum.fhat(mu))
        else:
            hat = datum.fhat
        return self._weighted(k, lam, hat)

    def _by_parts(self, datum):
        """(mu, fhat(mu)) -> int_0^L exp(-i mu x) Sf(x) dx, for a datum or
        a stack (see :meth:`forward`)."""
        # descending powers mu^(n-1), ..., mu^0 carry u_0, ..., u_(n-1)
        terms = ((-1j) ** np.arange(1, self.n + 1)
                 * datum.boundary_derivatives(self.n))
        return lambda mu, f: mu ** self.n * f - _polyval(terms, mu)

    def _weighted(self, k: int, lam: np.ndarray, hat) -> np.ndarray:
        """F_k of the half-line transform ``hat`` at lam: hat / (2 pi) for
        k = 0, else the kernel weights over hat's arguments alpha^p lam.
        Any leading axes of hat's values are kept in front."""
        if k == 0:
            return hat(lam) / (2.0 * np.pi)
        mults, weights = self.kernel_weights(k, lam)
        # every argument alpha^(N+l-k) lam has the modulus of lam, so the
        # stacked call resolves at the level lam alone would
        return (weights * hat(mults * lam)).sum(axis=-1 - lam.ndim)

    def _forward_both(self, datum, k: int, lam: np.ndarray) -> np.ndarray:
        """F_k[f](lam) and lam^(-n) F_k[Sf](lam) as rows 0 and 1 of a
        leading axis (in front of a stack's data axis), from one fhat
        evaluation at each argument alpha^p lam."""
        by_parts = self._by_parts(datum)

        def hat(mu):
            f = datum.fhat(mu)
            return np.stack([f, by_parts(mu, f)])

        out = self._weighted(k, lam, hat)
        out[1] *= lam ** (-float(self.n))
        return out

    # -- real-line component ----------------------------------------------
    @property
    def lambda_center(self) -> float:
        return max(2.0, 1.25 * self.R)

    def gamma0_tail_scan(self, G, xs: np.ndarray, rate: float):
        """Doubling-block tails of int exp(i lam x) G(lam) over |lam| > lambda_center
        on the real line, vectorized over xs.

        ``G`` must decay faster than any tracked power (already subtracted)
        and keep the real-data symmetry G(-lam) = conj(G(lam)) on the real
        line, which folds the left tail into the right one.  G may carry a
        leading data axis (a stack); the scan stops when the block of every
        datum is below target.  Raises ToleranceNotMet if the blocks have
        not become negligible within the block budget.
        """
        target = self.params.abs_tol / 8.0
        out = 0.0
        prev = math.inf
        a = self.lambda_center
        for _ in range(18):
            seg = PathSegment.ray(0.0, 0.0, a, 2.0 * a)
            nodes = segment_nodes(seg, self.params, osc=lambda u: rate)
            lam, w = nodes
            block = _apply(xs, nodes, w * G(lam))
            block = block + np.conj(block)
            out = out + block
            mag = np.abs(block).max(axis=-1)
            a *= 2.0
            # a small block that is also collapsing against the previous
            # one bounds the remaining tail; two small in a row works too
            if np.all((mag < target) & ((mag <= 0.25 * prev) | (prev < target))):
                return out
            prev = mag
        raise ToleranceNotMet(
            f"real-line tail still {mag.max():.2e} at |lambda| = {a:.3g}",
            value=out, est_error=float(mag.max()))

    def real_line_component(self, G, xs: np.ndarray, rate: float, *,
                            monomials=(), indented: bool = False,
                            tail=None) -> np.ndarray:
        """Integral of exp(i lam x) I(lam) along the real line, for x in xs.

        The integrand I is ``G``, or the sum of ``monomials`` (pairs (p, b)
        standing for b lam^(-p)) when ``G`` is None.  I minus that sum must
        decay faster than any power and keep the real-data symmetry
        I(-lam) = conj(I(lam)).  ``rate`` bounds the phase rate.  The
        central segment |lam| < lambda_center runs along the axis, or around
        the semicircular indentation above the origin when ``indented`` (I
        has a pole there).  I and the coefficients b may carry a leading
        data axis (a stack), which the result keeps.  The indentation has
        radius lambda_center / 2, at least 1, where lam^-p stays small and
        so does its rounding; this needs I analytic in the upper half-disc
        |lam| < lambda_center / 2 except at 0.  Beyond the central segment, the rest of I is summed
        by :meth:`gamma0_tail_scan`, or taken from ``tail``, the value of
        a scan the caller already ran on I minus these monomials, and the
        monomials to rounding by
        :func:`_real_axis_monomial_tails`.
        """
        lc = self.lambda_center
        if indented:
            d = 0.5 * lc
            segs = (PathSegment.ray(-lc, 0.0, 0.0, lc - d),
                    PathSegment.arc(0.0, d, math.pi, 0.0),
                    PathSegment.ray(d, 0.0, 0.0, lc - d))
            # an arc's parameter is its angle: the phase turns d rate per
            # radian, and the pole at the centre, d from every node, adds
            # a term
            central = {"arc": d * rate + 8.0, "ray": rate + 8.0 / d}
        else:
            segs = (PathSegment.ray(-lc, 0.0, 0.0, 2.0 * lc),)
            central = {"ray": rate}
        nodes = component_nodes(
            segs, self.params, lambda seg: lambda u: central[seg.kind])
        lam, w = nodes
        mono = _monomial_sum(monomials)
        vals = _apply(xs, nodes, w * (mono if G is None else G)(lam))
        if tail is not None:
            vals += tail
        elif G is not None:
            vals += self.gamma0_tail_scan(lambda lam: G(lam) - mono(lam), xs, rate)
        if monomials:
            # one coefficient column per datum of a stack
            powers, coeffs = zip(*monomials)
            vals += (_real_axis_monomial_tails(lc, xs, powers, self.params)
                     @ np.array(coeffs)).T
        return vals

    def _gamma0_piece(self, datum, xs: np.ndarray, *,
                      represent: bool = False) -> np.ndarray:
        """Real-line component of the inversion of F_0[f] at t = 0, or with
        ``represent`` that of F_0[f] and of lam^(-n) F_0[Sf] as rows 0 and
        1 of a leading axis.

        F_0[f] = fhat / (2 pi) is entire, so its central segment runs along
        the real axis; the first n+1 terms of fhat ~ sum_j f(j)(0) /
        (i lam)^(j+1) are the monomials whose tails are restored exactly, a
        power kept when any datum of a stack has it.  By parts,
        lam^(-n) F_0[Sf] is F_0[f] minus the first n of those terms: it has
        a pole at 0, so its central segment is indented, it restores the
        (n+1)-th power alone, and its tail beyond the central segment is
        F_0[f]'s, which one scan serves for both.
        """
        coeffs = datum.boundary_derivatives(self.n + 1)
        monomials = [(j + 1, c * (1j) ** (-(j + 1.0)) / (2 * np.pi))
                     for j, c in enumerate(np.moveaxis(coeffs, -1, 0))
                     if np.any(c != 0.0)]
        rate = self.phase_rate(0, xs, datum.support)

        def G(lam):
            return datum.fhat(lam) / (2 * np.pi)

        if not represent:
            return self.real_line_component(G, xs, rate, monomials=monomials)
        mono = _monomial_sum(monomials)
        tail = self.gamma0_tail_scan(lambda lam: G(lam) - mono(lam), xs, rate)
        return np.stack([
            self.real_line_component(G, xs, rate, monomials=monomials,
                                     tail=tail),
            self.real_line_component(
                lambda lam: self.forward(datum, 0, lam, applied=True)
                * lam ** (-float(self.n)), xs, rate, indented=True,
                monomials=[(p, b) for p, b in monomials if p > self.n],
                tail=tail)])

    # -- sector components --------------------------------------------------
    @property
    def pole_gap(self) -> float:
        """Distance from the junction circle |lam| = R to the outermost
        zero of the determinant, where the kernel weights have poles."""
        rmax = max((abs(r.value) for r in self.cm.delta_roots), default=0.0)
        return max(self.R - rmax, 0.05 * self.R)

    def junction_osc(self, seg: PathSegment, base_rate: float):
        """Phase-rate bound including the weight poles just inside the
        junction circle; panels near the junction shrink to resolve them."""
        gap = self.pole_gap
        if seg.kind == "arc":
            rate = seg.radius * base_rate + 8.0 * seg.radius / gap
            return lambda u: rate
        r0 = seg.r0
        return lambda u: base_rate + 8.0 / (gap + max(u - r0, 0.0))

    @staticmethod
    def junction_scale(F, seg: PathSegment) -> float:
        """|F| at the start of the ray ``seg`` (at least 1e-12), the
        largest over a stack's data: the scale of the envelope that
        truncates the ray."""
        jun = np.array([seg.point(seg.r0)], dtype=complex)
        return max(float(np.abs(F(jun)).max()), 1e-12)

    def sector_component(self, datum, k: int, xs: np.ndarray, *,
                         represent: bool = False) -> np.ndarray:
        """Integral of exp(i lam x) F_k[f] over component k.

        ``represent=True`` integrates lam^(-n) F_k[Sf] as well, which also
        inverts to f: the two integrals are rows 0 and 1 of a leading
        axis, both from one fhat evaluation per node, on rays cut at the
        larger junction value.  The component is
        that of :func:`halfline.contours.turn_axis_rays`: a ray on the real
        axis has turned into the sector, where F_k is analytic outside
        |lam| = R and it and exp(i lam x) decay, so the integral is kept.
        Every infinite ray is truncated where an exponential envelope from
        the junction value falls below tolerance, and one apply covers
        every x.
        """
        if not 1 <= k <= self.N:
            raise ValueError(f"sector index must be in 1..{self.N}, got {k}")
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        x_min = float(xs.min())
        rate = self.phase_rate(k, xs, datum.support)

        def F(lam):
            if represent:
                return self._forward_both(datum, k, lam)
            return self.forward(datum, k, lam)

        def decay(seg):
            return ExpDecay.linear(x_min * math.sin(seg.angle), seg.r0,
                                   math.log(self.junction_scale(F, seg)))

        nodes = component_nodes(
            turn_axis_rays(self.contours).gammas[k - 1], self.params,
            lambda seg: self.junction_osc(seg, rate), decay)
        lam, w = nodes
        return _apply(xs, nodes, w * F(lam))

    @property
    def mirrored(self) -> bool:
        """True when lam -> -conj(lam) maps the problem onto itself: conj(a) =
        (-1)^n a and a real boundary matrix (the datum is always real)."""
        B = self.problem.boundary_matrix
        return (self.a.conjugate() == (-1) ** self.n * self.a
                and not B.imag.any())

    def sector_components(self, datum, xs, *, represent: bool = False) -> list:
        """:meth:`sector_component` for k = 1..N.

        For a :attr:`mirrored` problem lam -> -conj(lam) maps component k
        onto component N+1-k, orientation reversed, and F_(N+1-k)(-conj
        lam) = conj F_k(lam) (for lam^(-n) F_k[Sf] too: the two (-1)^n
        cancel), so for real x component N+1-k is the conjugate of
        component k and only the lower half is integrated.  The
        self-mirror middle component of odd N is integrated in full.
        """
        out = []
        for k in range(1, self.N + 1):
            if self.mirrored and 2 * k > self.N + 1:
                out.append(np.conj(out[self.N - k]))
            else:
                out.append(self.sector_component(datum, k, xs,
                                                 represent=represent))
        return out

    # -- public inversion --------------------------------------------------
    def components(self, datum, xs, *,
                   represent: bool = False) -> list[np.ndarray]:
        """The pieces of the inversion of ``datum`` at the points xs > 0:
        the real-line component of F_0, then the sector components
        k = 1..N, which vanish for x > 0.

        ``datum`` may be a :class:`~halfline.datum.DataStack`: every piece
        then has one row per datum, all from one transform of each mu.
        With ``represent`` every piece has two rows on a leading axis, in
        front of any data axis: the inversion of F_k[f], then that of
        lam^(-n) F_k[Sf] (the spectral representation of f), which share
        the real line's tail scan and every sector ray's fhat values."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if xs.min() <= 0.0:
            raise NonpositiveX("reconstruction requires x > 0")
        return ([self._gamma0_piece(datum, xs, represent=represent)]
                + self.sector_components(datum, xs, represent=represent))

    def reconstruct(self, datum, xs) -> np.ndarray:
        """Invert the forward transforms of ``datum`` at the points xs > 0."""
        parts = self.components(datum, xs)
        return sum(parts[1:], parts[0])
