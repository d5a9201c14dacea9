"""Single-layer boundary integral solver and the H / D diagnostics.

The harmonic extension u of the curvature (u = kappa on Gamma, harmonic on
both sides) is represented as a single-layer potential

    u = S[phi] + c,   S[phi](x) = int_Gamma G(x - y) phi(y) ds(y),

with G = (1/2pi) log|z| on the plane and G = Lambda(z)/(2pi) on the torus.
The curve picks G: solve_ms and disk_distance take the kernel of
cache.curve (RadialCurve.kernel), so a torus curve cannot be solved with
the plane's G by omission.  assemble and circle_inverse, the primitives
below them, take the kernel explicitly.
The jump of normal derivatives across a single layer equals the density, so
the Mullins-Sekerka normal velocity is V = phi directly -- no normal
derivative extraction.  Sign/normalization calibration: boundary data
A cos(k phi) on a circle of radius R gives V = -(2k/R) A cos(k phi)
(interior r^k, exterior r^{-k} harmonics).

Nystrom discretization: the unknown is w = ell V (ell the length element).
The matrix acting on V is A = K diag(ell), and K, the one assembled, is
symmetric.  The log singularity is split off as
(1/2pi) log|2 sin((t-t')/2)| and integrated exactly on the trigonometric
interpolant (spectral log-quadrature circulant); the smooth remainder --
including the whole-lattice tail Lambda(z) - log|z| on the torus -- goes
through the trapezoid rule.  All nodes share the pole, so the smooth part
is real: |z_i - z_j|^2 / (4 sin^2((phi_i - phi_j)/2)) equals
rho_i rho_j + (rho_i - rho_j)^2 / (4 sin^2), with log ell_i on the
diagonal.  The circulant and 1 / (4 sin^2) depend on M alone and are
cached per M.  On the torus the tail is evaluated on the offsets
rho e(phi) from the pole, whose reach 2 max rho / 2L is the rule
evolution.run checks at the start, as two thin factors
(elliptic.lambda_tail_factors) of inner size 2K + 6: a solve applies them
to vectors and never sums them into an M x M matrix, which only
``assemble(cache, kernel)`` and a direct solve form.

The collocation system is bordered by the constraint int V ds =
dphi sum w = 0, a constant row, with c as the extra unknown, and
V = w / ell.  A flow's curves stay close to a circle, so each system
B x = b is solved by fixed-precision iterative refinement
x <- x + P (b - B x) (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 12), O(M^2) per sweep where a direct solve costs O(M^3),
against the inverse P of the bordered matrix of the circle of the curve's
R, in closed form (circle_inverse: K is circulant on the circle), cached
per (M, R, kernel) and read-only.  Refinement stops when the relative
residual reaches rounding level (REFINE_FLOOR, about 2 eps), where a
further sweep could not halve it, or when a sweep no longer halves it, or,
from the third sweep on, when the sweeps left could not reach REFINE_TOL
even at the best contraction seen; a residual left above REFINE_TOL (a
large deficit, or a small torus cell, whose lattice tail is far from
circulant) falls back to a direct solve of that one system.  No solve
keeps anything for the next, so each is a function of its curve and data.
Since K w = A V, the residual and |int V ds| are those of the system in V.

Dissipation: D = int |grad u|^2 = -int_Gamma kappa V ds (boundary
reduction; normals cancel between the two sides).

Squared distance H = ||chi_Omega - chi_B_R(c)||_{H^-1}^2 to the disk at
the barycenter c, the flow's H: disk_distance forms it from boundary
integrals on the curve's nodes, on the plane or the torus, spectrally
accurate and free of the cancellation between its O(R^4) terms (see
there).

The squared distance between the regions of two curves sharing a domain
(``msrelax hminus``), and the oracle of disk_distance (with a disk curve,
rho_hat = R e_0 about c, as the second curve): the indicator difference is
rasterized with subcell area-fraction anti-aliasing and
H = ||f||_{H^-1}^2 is summed in Fourier space (squared_distance); plane
curves embed into a torus of half edge length EMBED_FACTOR * R (the larger
R of the pair).  The raster smooths the interface at its cell size, so it
converges to H from below as the grid is refined; GridTooCoarse warns when
a curve's interface band sup|rho - R| is under half a cell, where the
raster's error in H passes about 2% on mode-2 curves (measured in the
README's hminus table; it grows with the mode number).  Only the cells of
the two regions' bounding boxes (periodic, per axis) are rasterized: a
subcell farther than max rho + hs from a region's centre along either axis
has radial signed distance below -hs/2, so its coverage clips to exactly 0
and every cell outside the boxes is exactly 0 in the full-grid raster too.
A curve's rho is tabulated at uniform angles by one zero-padded inverse
real FFT and read by direct-index linear interpolation; H sums w |F|^2 over
the real FFT F of the raster, with the weights w (1/|k|^2, the conjugate
pairs counted twice) cached per grid size and half edge L.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import elliptic, geometry, sobolev
from .errors import GridTooCoarse, NegativeDissipation, SolverSingular

EMBED_FACTOR = 8.0
ORACLE_REFINE = 4   # squared_distance_oracle interpolates to this x finer grid
REFINE_SWEEPS = 8   # cap on the iterative-refinement sweeps of one solve
REFINE_TOL = 1e-14  # a refined relative residual above this solves directly
REFINE_FLOOR = 4e-16  # rounding level (about 2 eps): refinement stops here
H_REFINE = 8        # disk_distance's rays per node
GAUSS_NODES = 8     # disk_distance's Gauss-Legendre nodes per ray


def log_quadrature_row(M):
    """First row of the circulant quadrature matrix for the kernel
    (1/2pi) log|2 sin((t - t')/2)| dt' on M uniform nodes.

    Exact on trigonometric polynomials up to degree M/2: the Fourier
    multiplier of the kernel is -1/(2|m|) per mode.
    """
    delta = 2.0 * np.pi * np.arange(M) / M
    row = np.zeros(M)
    for m in range(1, M // 2):
        row -= np.cos(m * delta) / m
    row -= np.cos((M // 2) * delta) / M
    return row / M


def _circulant(col):
    """The circulant matrix col[(i - j) % M] with first column ``col``: its
    row i is the window from M - i of col[(-k) % M], k = 0..2M-1."""
    M = col.size
    rev = np.roll(col[::-1], 1)
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(rev, 2), M)
    return windows[M:0:-1].copy()


@functools.lru_cache(maxsize=8)
def _node_matrices(M):
    """The parts of ``assemble`` that depend on M alone, read-only: the
    circulant quadrature matrix of log_quadrature_row and
    1 / (4 sin^2((phi_i - phi_j)/2)) with a zero diagonal."""
    circulant = _circulant(log_quadrature_row(M))
    phi = geometry.node_trig(M)[0]
    chord2 = 4.0 * np.sin(0.5 * (phi[:, None] - phi[None, :])) ** 2
    inv_chord2 = 1.0 / (chord2 + np.diag(np.full(M, np.inf)))
    for mat in (circulant, inv_chord2):
        mat.setflags(write=False)
    return circulant, inv_chord2


@dataclass
class BieSolve:
    """Density V (= the normal velocity) and constant c of u = S[V] + c, with
    the bordered system's relative residual (for the data less its mean),
    |int V ds|, the refinement sweeps taken and whether the system fell
    back to a direct solve."""

    V: np.ndarray
    additive_constant: float
    residual_norm: float
    mean_constraint_residual: float
    sweeps: int = 0
    direct: bool = False


def _refine(inverse, big, rhs, tail):
    """Solve (big with ``tail``, the lattice tail's factors (left / M,
    right) or None) x = rhs by iterative refinement against P = ``inverse``:
    x = P rhs, then x <- x + P (rhs - big x) while the relative residual is
    above REFINE_FLOOR and each sweep at least halves it, at most
    REFINE_SWEEPS sweeps.  From the third sweep on it also stops when the
    sweeps left, each contracting the residual as much as the best sweep
    so far, could not bring it to REFINE_TOL: the caller then solves
    directly, and the sweeps it would have spent are saved.  Returns the
    iterate of least residual, its relative residual and the sweeps
    taken."""
    x = inverse @ rhs
    r = rhs - _product(big, tail, x)
    res, norm = r @ r, rhs @ rhs
    floor = REFINE_FLOOR * REFINE_FLOOR * norm
    target = REFINE_TOL * REFINE_TOL * norm
    sweeps, best = 0, 1.0
    while res > floor and sweeps < REFINE_SWEEPS:
        sweeps += 1
        y = x + inverse @ r
        s = rhs - _product(big, tail, y)
        new = s @ s
        halved = new < 0.25 * res
        best = min(best, new / res)
        if new < res:
            x, r, res = y, s, new
        if not halved or (
                sweeps > 2 and res * best ** (REFINE_SWEEPS - sweeps) > target):
            break
    return x, math.sqrt(res) / max(math.sqrt(norm), 1e-300), sweeps


def _product(big, tail, x):
    """(big with ``tail``) @ x, the tail applied by its two thin factors."""
    y = big @ x
    if tail is not None:
        left, right = tail
        y[:-1] += left.T @ (right @ x[:-1])
    return y


@functools.lru_cache(maxsize=8)
def circle_inverse(M, R, kernel=None):
    """The inverse of the bordered matrix of solve_ms for the circle of
    radius R about its centre at M nodes, in closed form, read-only; with a
    LatticeKernel, of the circle's matrix with the -beta_bg |z|^2 part of
    the lattice tail (the rest of the tail is not circulant).

    On the circle K is circulant.  Its eigenvalue on Fourier mode m is
    kappa_m = -1/(2|m|) for 0 < |m| < M/2 (log_quadrature_row),
    kappa_{M/2} = -1/M and kappa_0 = log R (the smooth part is log R / M in
    every entry); the tail's -beta_bg |z_i - z_j|^2 / M adds -2 beta_bg R^2
    to kappa_0 and beta_bg R^2 to kappa_{+-1}.  Splitting off the mean, the
    bordered system K w + c = f, dphi sum w = g has the inverse

        P = [[Z, 1/(2 pi)], [1/M, -kappa_0 / (2 pi)]],

    with Z the circulant of eigenvalues 1/kappa_m for m != 0 and 0 at
    m = 0: one inverse real FFT gives its first column.
    """
    kappa = -0.5 / np.maximum(np.arange(M // 2 + 1), 1)
    kappa[0], kappa[-1] = math.log(R), -1.0 / M
    if kernel is not None:
        shift = kernel.beta_bg * R * R
        kappa[0] -= 2.0 * shift
        kappa[1] += shift
    eig = np.zeros_like(kappa)
    eig[1:] = 1.0 / kappa[1:]
    inverse = np.empty((M + 1, M + 1))
    inverse[:M, :M] = _circulant(np.fft.irfft(eig, M))
    inverse[:M, M] = 1.0 / (2.0 * np.pi)
    inverse[M, :M] = 1.0 / M
    inverse[M, M] = -kappa[0] / (2.0 * np.pi)
    inverse.setflags(write=False)
    return inverse


def _offsets(cache):
    """The nodes as complex offsets rho e(phi) from the pole."""
    _, cphi, sphi = geometry.node_trig(cache.M)
    return cache.rho * (cphi + 1j * sphi)


def assemble(cache, kernel=None):
    """Dense collocation matrix K of the single-layer operator at the nodes,
    acting on w = ell V: symmetric, and K diag(ell) is the matrix acting on
    V.

    K = C + (1/M) (log|z_i - z_j| - log|2 sin((phi_i - phi_j)/2)|), with C
    the circulant log-quadrature matrix and log ell_i on the diagonal.  All
    nodes share the pole, so the smooth part is real:
    |z_i - z_j|^2 / (4 sin^2) = rho_i rho_j + (rho_i - rho_j)^2 / (4 sin^2).
    ``kernel`` None means the free-space plane kernel; a LatticeKernel adds
    the smooth tail of Lambda/2pi, evaluated on the offsets rho e(phi) from
    the pole (elliptic.lambda_tail_nodes): OutOfRadius when
    2 max rho >= elliptic.TAIL_RADIUS * 2L.  solve_ms takes the tail by its
    factors instead (elliptic.lambda_tail_factors), where they cost less.

    Unlike solve_ms, assemble takes the kernel as an argument rather than
    from cache.curve: solve_ms assembles only the free-space part of a torus
    curve's matrix (kernel None) when it applies the tail by its factors.
    """
    M = cache.M
    circulant, inv_chord2 = _node_matrices(M)
    mat = _polar_chord(cache.rho, inv_chord2)
    np.log(mat, out=mat)
    mat *= 0.5 / M
    mat.flat[::M + 1] = np.log(cache.ell) / M
    if kernel is not None:
        tail = elliptic.lambda_tail_nodes(kernel, _offsets(cache))
        tail *= 1.0 / M
        mat += tail
    mat += circulant
    return mat


def _pair_grids(v, out=None):
    """The grids v_i and v_j of a node vector, (2, M, M), filled row by row
    (into ``out`` if given): elementwise arithmetic on the two runs over
    contiguous operands, where broadcasting v[:, None] against v[None, :]
    costs about three times as much, with the same result."""
    M = v.size
    grids = np.empty((2, M, M)) if out is None else out
    grids[0] = v[:, None]
    grids[1] = v
    return grids


def _polar_chord(v, inv_chord2):
    """(v_i - v_j)^2 inv_chord2 + v_i v_j over the node pairs: with v = rho,
    |z_i - z_j|^2 / (4 sin^2((phi_i - phi_j)/2)) for nodes about one pole."""
    grids = _pair_grids(v)
    P = grids[0] - grids[1]
    P *= P
    P *= inv_chord2
    grids[0] *= grids[1]
    P += grids[0]
    return P


def _chord_difference(w, s):
    """(w_i - w_j) (s_i - s_j) over the node pairs."""
    grids = _pair_grids(w)
    d = grids[0] - grids[1]
    d *= np.subtract(*_pair_grids(s, grids), out=grids[0])
    return d


def _bordered(mat, weights):
    M = mat.shape[0]
    big = np.zeros((M + 1, M + 1))
    big[:M, :M] = mat
    big[:M, M] = 1.0
    big[M, :M] = weights
    return big


def solve_ms(cache, data=None):
    """Solve S[phi] + c = data (default: curvature), int phi ds = 0, with
    the Green's function of cache.curve's domain (RadialCurve.kernel).

    Returns a BieSolve whose density V IS the normal velocity (jump of
    normal derivatives of the two-sided harmonic extension).  The unknown
    is w = ell V: K w + c = data, dphi sum w = 0 with
    K = assemble(cache, cache.curve.kernel), and V = w / ell.  The mean of
    ``data`` goes into c directly (a constant is solved by V = 0), so the
    system solved is the one for the rest, whose size is that of V: on a
    near-circle the residual is then small relative to V, not only to the
    curvature.  The system is solved by iterative refinement against the
    circle's inverse (circle_inverse of the curve's M, R and kernel), and
    directly (np.linalg.solve) when the refined relative residual stays
    above REFINE_TOL.  On the torus the lattice tail's share of K enters
    the refinement as the factors (left / M, right) of
    elliptic.lambda_tail_factors; the dense K is formed only where they
    cost more, or for the direct solve.  Raises SolverSingular when the
    direct solve finds the matrix singular, or the residual is not finite
    or above 1e-8.
    """
    M = cache.M
    if data is None:
        data = cache.kappa
    kernel = cache.curve.kernel
    tail = None if kernel is None else \
        elliptic.lambda_tail_factors(kernel, _offsets(cache))
    if tail is not None:   # the tail's share of K is left.T @ right / M
        np.multiply(tail[0], 1.0 / M, out=tail[0])
    # the plane part, and the tail too where it has no factors
    big = _bordered(assemble(cache, kernel if tail is None else None),
                    cache.dphi)
    shift = float(np.mean(data))
    rhs = np.concatenate([data - shift, [0.0]])
    sol, resid, sweeps = _refine(circle_inverse(M, cache.curve.R, kernel),
                                 big, rhs, tail)
    direct = not resid <= REFINE_TOL
    if direct:
        if tail is not None:
            big[:-1, :-1] += tail[0].T @ tail[1]
        try:
            sol = np.linalg.solve(big, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverSingular(str(exc)) from exc
        resid = np.linalg.norm(rhs - big @ sol) / max(np.linalg.norm(rhs),
                                                      1e-300)
    V, c = sol[:M] / cache.ell, float(sol[M]) + shift
    if not np.isfinite(resid) or resid > 1e-8:
        raise SolverSingular(f"relative residual {resid:.3e}")
    mean_resid = abs(float(np.dot(cache.ell * cache.dphi, V)))
    return BieSolve(V, c, float(resid), mean_resid, sweeps, direct)


def dissipation(cache, solve):
    """D = -int_Gamma kappa V ds >= 0."""
    d = -cache.quad(cache.kappa * solve.V * cache.ell)
    scale = cache.quad(np.abs(cache.kappa * solve.V) * cache.ell) + 1e-300
    if d < -1e-10 * scale:
        raise NegativeDissipation(f"D = {d:.3e} with scale {scale:.3e}")
    return max(d, 0.0)


# ---------------------------------------------------------------------------
# trace equality on the disk
# ---------------------------------------------------------------------------

def trace_equality_disk(g_amps):
    """Per-mode Dirichlet energies of the harmonic extensions of
    g = sum_k A_k cos(k theta) on the unit circle vs the H^{1/2}(S^1) norm.

    ``g_amps``: dict {k: A_k} with k >= 1.  Interior and exterior energies
    are quadratures of the explicit r^k / r^{-k} extensions (both reduce to
    2 pi A^2 k^2 int_0^1 s^{2k-1} ds = pi k A^2); the H^{1/2} side goes
    through the Fourier toolkit.  Returns one row per mode plus totals.
    """
    nodes, wts = np.polynomial.legendre.leggauss(200)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * wts
    rows = []
    for k, A in sorted(g_amps.items()):
        interior = 2.0 * np.pi * A**2 * k**2 * np.sum(w * s ** (2 * k - 1))
        exterior = interior  # identical integral after r -> 1/r
        g = np.zeros((k + 1, 2))
        g[k, 0] = A
        half = sobolev.h_norm(g, np.pi, 0.5) ** 2
        rows.append({"k": k, "interior": float(interior),
                     "exterior": float(exterior), "h_half_sq": float(half)})
    total = {"interior": sum(r["interior"] for r in rows),
             "exterior": sum(r["exterior"] for r in rows),
             "h_half_sq": sum(r["h_half_sq"] for r in rows)}
    return {"rows": rows, "total": total}


# ---------------------------------------------------------------------------
# squared H^{-1} distance
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _distance_weights(M):
    """The node-pair weights of disk_distance's double boundary integral,
    read-only, each (M, M): (2 pi / M) C sin^2((phi_i - phi_j)/2) with C
    the circulant of _node_matrices (the log|2 sin| part), and
    (2 pi / M^2) sin^2((phi_i - phi_j)/2) (the trapezoid part)."""
    circulant = _node_matrices(M)[0]
    phi = geometry.node_trig(M)[0]
    sin2 = np.sin(0.5 * (phi[:, None] - phi[None, :])) ** 2
    weights = ((2.0 * np.pi / M) * circulant * sin2,
               (2.0 * np.pi / M**2) * sin2)
    for mat in weights:
        mat.setflags(write=False)
    return weights


def _disk_graph(d, R, M):
    """The disk of radius R centred at offset d from the pole, as a polar
    graph about the pole at the M nodes: (b, b - R, db/dphi, h) with the
    radius b = d.e + h, h = sqrt(R^2 - (d.e_perp)^2), and b - R formed
    without cancellation."""
    _, cphi, sphi = geometry.node_trig(M)
    de = d[0] * cphi + d[1] * sphi
    dp = d[1] * cphi - d[0] * sphi
    h = np.sqrt((R - dp) * (R + dp))
    b = de + h
    return b, de - dp * dp / (h + R), dp * b / h, h


def disk_distance(cache):
    """H, the squared H^-1 distance ||chi_Omega - chi_B||^2 from the region
    Omega enclosed by cache.curve to the disk B of radius R at its bulk
    barycenter c, by boundary integrals on the polar graphs about the pole.
    Omega's area must be pi R^2 (as a flow keeps it), so that the
    difference has zero mean.  The domain is cache.curve's: the plane, or
    the torus of its L.

    With I(A, A') = int_A int_A' log|x - y| dx dy,

        H = -(1/2pi) ([I(Omega, Omega) - I(B, B)] - 2 [I(Omega, B) - I(B, B)]),

    and each bracket is formed from the differences w = rho - b between the
    two graphs (rho - R from the coefficient deviation, b - R from
    _disk_graph), so nothing cancels at the O(R^4) size of the I's.

    - I(A, A) = -oint oint gamma'(phi).gamma'(phi') Psi(r) dphi dphi' with
      Psi = r^2 (log r - 1)/4, whose Laplacian is log r, and
      r = |gamma(phi) - gamma(phi')|.  assemble's polar identity
      r^2 = 4 sin^2 P splits log r = log|2 sin| + (1/2) log P: the first
      part goes through the log-quadrature circulant, the rest through the
      trapezoid rule, with the weights of _distance_weights.  The
      Omega - B differences of G = gamma'.gamma' and of P are thin outer
      products (P's with a 1/(4 sin^2) factor), and
      log P_Omega - log P_B = log1p(dP / P_B).
    - I(Omega, B) - I(B, B) = oint int_b^rho U_B r dr dphi, with B's
      potential U_B = pi R^2 log|x - c| outside B and pi R^2 log R -
      pi (R^2 - |x - c|^2)/2 inside: GAUSS_NODES Gauss-Legendre nodes on
      each ray.  U_B is only C^1 across the circle, so a ray integral is
      not smooth in phi where the graphs cross; the rays are therefore
      H_REFINE times denser than the nodes (synth_nodes).
    - On the torus, Lambda = log|z| + the lattice tail adds
      -(1/2pi) [Re sum C_ab nu_a nu_b + 2 beta_bg |int f z|^2] with C of
      elliptic._pair_coefficients (the powers of 2u = (x - pole)/L, with
      (-1)^b folded in) and the moments nu_a = int f (2u)^a,
      f = chi_Omega - chi_B: nu_a = oint rho^(a+2) e^(i a phi) /
      ((a+2) L^a) dphi - pi R^2 (d/L)^a, d = c - pole, summed on the rays'
      angles: rho^(a+2) has a wide spectrum where the degree is high.  The
      degree K follows elliptic._tail_degree at the reach
      r = max(max rho, |d| + R) / L, which raises OutOfRadius at
      TAIL_RADIUS.  Every term is bounded by r^k, so no degree overflows.

    Under N-doubling H agrees with itself to about 1e-10 relative on
    resolved curves, and to rounding (a few 1e-9 relative) at H ~ 1e-14 R^4.
    """
    curve = cache.curve
    R, M, F = curve.R, cache.M, H_REFINE * cache.M
    rho = cache.rho
    d = geometry.node_moments(rho) / (3.0 * geometry.node_area(rho))
    dev = curve.rho_hat.copy()
    dev[0, 0] -= R
    b, bmr, bp, h = _disk_graph(d, R, F)
    w = geometry.synth_nodes(dev, M=F) - bmr

    # I(Omega, B) - I(B, B): U_B - pi R^2 log R along each ray r = b + t,
    # where |x - c|^2 - R^2 = t (t + 2h), plus pi R^2 log R times the area
    # difference
    x, wt = _gauss_rule()
    t = np.multiply.outer(w, x)
    q = t * (t + 2.0 * h[:, None])
    U = np.where(w[:, None] > 0.0,
                 0.5 * np.pi * R * R * np.log1p(q / (R * R)), 0.5 * np.pi * q)
    rays = w * ((U * (b[:, None] + t)) @ wt)
    cross = geometry.quad(rays + np.pi * R * R * math.log(R)
                          * 0.5 * w * (w + 2.0 * b))
    rays_rho = b + w

    # I(Omega, Omega) - I(B, B), node pair by node pair
    b, bp, w = b[::H_REFINE], bp[::H_REFINE], w[::H_REFINE]
    _, cphi, sphi = geometry.node_trig(M)
    e = cphi + 1j * sphi
    g = (cache.rho_phi + 1j * rho) * e      # gamma' of Omega,
    gb = (bp + 1j * b) * e                  # of B,
    dg = (cache.rho_phi - bp + 1j * w) * e  # and their difference, from w
    GB = _outer_sum([gb.real, gb.imag], [gb.real, gb.imag])
    dG = _outer_sum([dg.real, dg.imag, gb.real, gb.imag],
                    [g.real, g.imag, dg.real, dg.imag])
    inv_chord2 = _node_matrices(M)[1]
    PB = _polar_chord(b, inv_chord2)
    dP = _chord_difference(w, rho + b)
    dP *= inv_chord2
    dP += _outer_sum([w, b], [rho, w])
    # dX = dG P_Omega + G_B dP and
    # dY = dX ((1/2) log P_Omega - 1) + (1/2) G_B P_B log1p(dP / P_B),
    # in place
    PO = PB + dP
    dX = dG
    dX *= PO
    dX += GB * dP
    dY = np.log(PO, out=PO)
    dY *= 0.5
    dY -= 1.0
    dY *= dX
    dP /= PB
    GB *= PB
    GB *= np.log1p(dP, out=dP)
    GB *= 0.5
    dY += GB
    circ_w, trap_w = _distance_weights(M)
    self_term = -(2.0 * np.pi) * (np.einsum("ij,ij->", circ_w, dX)
                                  + np.einsum("ij,ij->", trap_w, dY))
    H = -(self_term - 2.0 * cross) / (2.0 * np.pi)
    kernel = curve.kernel
    if kernel is not None:
        H += _lattice_distance(kernel, rays_rho, d, R)
    return float(H)


@functools.cache
def _gauss_rule():
    """GAUSS_NODES Gauss-Legendre nodes and weights on [0, 1]."""
    x, wt = np.polynomial.legendre.leggauss(GAUSS_NODES)
    return 0.5 * (x + 1.0), 0.5 * wt


def _outer_sum(left, right):
    """sum_k left[k][i] right[k][j] of node vectors, as one einsum (numpy's
    own loops, so the sum does not depend on the BLAS threads)."""
    return np.einsum("ki,kj->ij", np.stack(left), np.stack(right))


def _lattice_distance(kernel, rho, d, R):
    """The lattice tail's share of disk_distance on the torus (see there),
    from the curve's radii ``rho`` at uniform angles."""
    M, L = rho.size, kernel.L
    K = elliptic._tail_degree(max(float(rho.max()), math.hypot(*d) + R) / L)
    _, cphi, sphi = geometry.node_trig(M)
    a = np.arange(K + 1)
    powers = elliptic._powers(rho * (cphi + 1j * sphi) / L, K)
    nu = geometry.quad(rho**2 * powers) / (a + 2.0)
    nu -= np.pi * R * R * (complex(*d) / L) ** a
    nu[0] = 0.0   # the zero mean of f
    C = elliptic._pair_coefficients(K)
    series = nu.real @ (C @ nu.real) - nu.imag @ (C @ nu.imag)
    return -(series + 2.0 * kernel.beta_bg * abs(L * nu[1]) ** 2) / (
        2.0 * np.pi)


_RHO_TABLE = 8192   # least number of angles at which coverage tabulates rho


def _curve_region(curve):
    """(centre, table, reach) of the region enclosed by ``curve``: its pole,
    rho at T = max(_RHO_TABLE, 2N) uniform angles 2 pi j / T (one
    zero-padded inverse real FFT, geometry.synth_nodes) with rho(0)
    appended as entry T, and the table's max."""
    T = max(_RHO_TABLE, curve.M)
    rho = geometry.synth_nodes(curve.rho_hat, M=T)
    table = np.append(rho, rho[0])
    return curve.pole, table, float(rho.max())


def _uniform_lookup(table, theta):
    """Linear interpolation at angles theta in [0, 2 pi] of a table of
    T + 1 values at the uniform angles 2 pi j / T, indexed directly."""
    T = table.size - 1
    s = theta * (T / (2.0 * np.pi))
    i = np.minimum(s.astype(np.intp), T - 1)
    lo = table[i]
    return lo + (s - i) * (table[i + 1] - lo)


def _coverage(region, xs, ys, L, hs):
    """Subcell coverage fractions of a star-shaped region (_curve_region) on
    the subcell centres xs x ys, estimated from the radial signed distance
    rho - r about its centre, clipped to [0, 1]."""
    centre, table, _ = region
    dx = ((xs - centre[0] + L) % (2.0 * L) - L)[:, None]
    dy = ((ys - centre[1] + L) % (2.0 * L) - L)[None, :]
    rho = _uniform_lookup(table, np.arctan2(dy, dx) % (2.0 * np.pi))
    return np.clip(0.5 + (rho - np.hypot(dx, dy)) / hs, 0.0, 1.0)


def _box(x1, sub, axis, regions, L, hs):
    """The cells along one axis holding a subcell centre within periodic
    distance reach + hs of a region's centre, and those cells' subcell
    centres; every other cell has coverage exactly 0.  At least two cells
    when the axis has two, so that the block average reduces in the same
    order as over the whole grid."""
    near = np.zeros(x1.size, dtype=bool)
    for centre, _, reach in regions:
        d = (x1 - centre[axis] + L) % (2.0 * L) - L
        near |= np.abs(d) <= reach + hs
    cells = np.unique(np.flatnonzero(near) // sub)
    G = x1.size // sub
    if cells.size < min(2, G):
        cells = np.unique(np.append(cells, (cells[0] + 1) % G))
    return cells, x1[(cells[:, None] * sub + np.arange(sub)).ravel()]


def rasterize_difference(curve, other, grid=512, sub=4):
    """Cell-averaged samples of chi_Omega - chi_Omega_other, the regions
    enclosed by ``curve`` and ``other``, on the torus grid, with sub x sub
    subcell area-fraction anti-aliasing.  Plane curves embed at
    EMBED_FACTOR times the larger R.  Warns GridTooCoarse when either
    curve's interface band sup|rho - R| is under h / 2.  Returns (f, L, h)
    with f zero-mean.  Raises ValueError when the curves lie in different
    domains or torus cells."""
    if other.domain != curve.domain or (
            curve.domain == "torus" and other.L != curve.L):
        raise ValueError(f"curves in different domains: {curve.domain} "
                         f"(L = {curve.L}) and {other.domain} "
                         f"(L = {other.L})")
    curves = (curve, other)
    L = curve.L if curve.domain == "torus" else \
        EMBED_FACTOR * max(c.R for c in curves)
    G = grid
    h = 2.0 * L / G
    for c in curves:
        dev = float(np.max(np.abs(geometry.synth_nodes(c.rho_hat) - c.R)))
        if dev > 0 and dev < 0.5 * h:
            # constant text, so the once-per-location filter de-duplicates it
            warnings.warn("interface band under half a grid cell: H is "
                          "unreliable", GridTooCoarse, stacklevel=2)
            break

    hs = 2.0 * L / (G * sub)
    x1 = -L + hs * (np.arange(G * sub) + 0.5)
    regions = [_curve_region(c) for c in curves]
    (cx, xs), (cy, ys) = (_box(x1, sub, axis, regions, L, hs)
                          for axis in (0, 1))
    box = _coverage(regions[0], xs, ys, L, hs) - \
        _coverage(regions[1], xs, ys, L, hs)
    f = np.zeros((G, G))
    f[np.ix_(cx, cy)] = box.reshape(cx.size, sub, cy.size, sub).mean(
        axis=(1, 3))
    f -= f.mean()
    return f, L, h


def squared_distance(curve, other, grid=512, sub=4):
    """H = squared H^{-1}(torus) norm of chi_Omega - chi_Omega_other, the
    regions enclosed by two curves sharing a domain.

    Plane curves are embedded into a torus with L = EMBED_FACTOR * R (the
    larger R of the pair, so that H is symmetric in the two curves); the
    H^{-1} norm of the compactly supported zero-mean difference converges as
    the embedding grows.  The sum runs over the real FFT of the raster, with
    the weights of _h_weights.
    """
    f, L, _ = rasterize_difference(curve, other, grid, sub)
    F = np.fft.rfft2(f)
    return float(np.sum(_h_weights(f.shape[0], L)
                        * (F.real ** 2 + F.imag ** 2)))


@functools.lru_cache(maxsize=4)
def _h_weights(G, L):
    """Read-only weights w = (2L)^2 / (G^4 |k|^2) on the rfft2 layout of a
    G x G raster of the torus [-L, L)^2, so that H = sum w |F|^2: zero at
    k = 0, doubled on the columns 1..ceil(G/2)-1 that stand for a conjugate
    pair, single on the Nyquist column of an even G."""
    m = np.fft.fftfreq(G, d=1.0 / G)
    n = np.arange(G // 2 + 1)
    K2 = (np.pi / L) ** 2 * (m[:, None] ** 2 + n[None, :] ** 2)
    K2[0, 0] = 1.0
    w = (2.0 * L) ** 2 / (float(G) ** 4 * K2)
    w[0, 0] = 0.0
    w[:, 1:(G + 1) // 2] *= 2.0
    w.setflags(write=False)
    return w


@functools.cache
def _cell_log_mean():
    """Mean of log|w| over the unit square [-1/2, 1/2]^2 (midpoint rule)."""
    t = (np.arange(256) + 0.5) / 256 - 0.5
    WX, WY = np.meshgrid(t, t, indexing="ij")
    return float(np.mean(np.log(np.hypot(WX, WY))))


def _signed_modes(G):
    return np.fft.fftfreq(G, d=1.0 / G)


def _trig_upsample(f, factor):
    """Band-limited interpolation of grid samples onto a ``factor`` x finer
    grid, via explicit DFT matrices (no fast transform: the oracle must not
    share machinery with the production path)."""
    G = f.shape[0]
    Gp = factor * G
    j = np.arange(G)
    k = _signed_modes(G)
    W = np.exp(-2j * np.pi * np.outer(k, j) / G) / G
    F = W @ f @ W.T
    jp = np.arange(Gp)
    E = np.exp(2j * np.pi * np.outer(jp, k) / Gp)
    return (E @ F @ E.T).real


def squared_distance_oracle(curve, other, grid=64):
    """Direct real-space double sum H = h'^4 sum_ij f_i N(x_i - x_j) f_j with
    N = -Lambda/(2 pi) tabulated from lattice sums (no fast Poisson solve).

    The field, rasterized with 4 x 4 subcells, is first interpolated to an
    ORACLE_REFINE x finer grid (direct trigonometric interpolation) because
    the point-sampled log kernel carries an O((k h)^2) near-singularity
    quadrature error; refining shrinks it below the 1% comparison budget.
    The singular cell uses the cell-averaged log.  Brute force O(G'^4) by
    construction -- this is the independent check for squared_distance
    of the same two curves."""
    f, L, h = rasterize_difference(curve, other, grid, 4)
    fp = _trig_upsample(f, ORACLE_REFINE)
    Gp = fp.shape[0]
    hp = h / ORACLE_REFINE
    kern = elliptic.LatticeKernel(L)
    off = _signed_modes(Gp) * hp
    ZX, ZY = np.meshgrid(off, off, indexing="ij")
    Z = ZX + 1j * ZY
    tail = elliptic.lambda_tail(kern, Z)
    absZ = np.abs(Z)
    absZ[0, 0] = 1.0
    Nk = -(np.log(absZ) + tail) / (2.0 * np.pi)
    Nk[0, 0] = -(np.log(hp) + _cell_log_mean() + tail[0, 0]) / (2.0 * np.pi)
    # circular autocorrelation, one axis-0 shift at a time
    jj = np.arange(Gp)
    gather = (jj[None, :] + jj[:, None]) % Gp
    total = 0.0
    for a in range(Gp):
        fa = np.roll(fp, a, axis=0)
        prod = fp.T @ fa
        corr = prod[jj[None, :], gather].sum(axis=1)
        total += np.dot(Nk[a, :], corr)
    return float(total * hp**4)
