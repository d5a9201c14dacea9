"""Weierstrass sigma machinery and the periodic fundamental solution Lambda.

Square lattice with half-periods omega1 = L, omega3 = iL; lattice points
z_mn = 2L(m + in).  The torus Green-function building block is

    Lambda(z) = Re log sigma(z) - beta_bg |z|^2,   beta_bg = pi/(8 L^2),

which is doubly periodic with period 2L in both directions (the quadratic
counter-term exactly cancels the quasi-period increments 2 eta_j (z+omega_j)),
behaves like log|z| near the origin, and has zero mean Laplacian over the
fundamental cell: Delta Lambda = 2 pi (sum of deltas - 1/(4L^2)).

log sigma is evaluated as

    log z + sum_{m,n}' [ log(1 - z/z_mn) + z/z_mn + (1/2)(z/z_mn)^2 ]

over expanding square shells with compensated accumulation.  The omitted
tail collapses (shells are symmetric under multiplication by i, so only
powers k = 0 mod 4 survive) to -sum_{4|k} z^k T_k / k with T_k the tail of
the Eisenstein sum sum' z_mn^{-k}.  The k = 4 and k = 8 tails decay only
algebraically in the shell count, so they are corrected exactly using the
rapidly convergent q-series for E4(i) (q = e^{-2 pi}); from k = 12 on, the
shells beyond s add at most 8 s^(2-k) / (k - 2) (shell s holds 8s points
of modulus at least s), so g_k sums only the shells where that bound is
above 1e-18: 61 of the SHELLS = 64 at k = 12, two at k = 40, one from
k = 100 on.  Summed with zeros in place of the dropped terms, each g_k of
a degree that TAIL_RADIUS admits equals its full 64-shell sum bit for bit
(a test checks every one).

The smooth tail Lambda(z) - log|z| = -beta_bg |z|^2 - sum_{4|k} Re(g_k w^k)/k
(w = z/2L, |w| < 1) has two evaluators.  lambda_tail sums the series
elementwise on any array of z; it serves the H oracle's grid offsets and is
the reference.  lambda_tail_factors gives the tail over all node pairs
z_i - z_j of a boundary, given as offsets z_i from a centre (the pole), as
two thin (2K + 6) x M factors: the binomial expansion of (u_i - u_j)^k,
u = z/2L, in the powers of 2u (coefficients binom(k, a) 2^-k <= 1, so no
degree overflows) turns the series into a product of power matrices
through a symmetric (K+1)^2 coefficient matrix, and the quadratic term
adds four rows.  lambda_tail_nodes is their product; the BIE refinement
applies them to vectors without forming it.  Since |u_i - u_j| <=
2 max|u|, that bound is the nodes' reach: it sets the degree K and raises
OutOfRadius at TAIL_RADIUS, the same rule evolution.run checks at the start
(2 max rho < TAIL_RADIUS 2L).  Where the factors would cost more,
lambda_tail_nodes falls back to lambda_tail.

The kernel is a primitive: every function here takes it explicitly.  A
curve's solves take theirs from geometry.RadialCurve.kernel, which is
LatticeKernel(L), a value of L; the lattice tables are shared by every L.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NearPole, OutOfRadius

POLE_TOL = 1e-8
TAIL_RADIUS = 0.98    # lambda_tail needs |z| / (2L) below this
SHELLS = 64           # square lattice shells summed directly by log_sigma


def _eisenstein_e4_i():
    """E4 at the square-lattice modulus tau = i via its q-expansion."""
    q = np.exp(-2.0 * np.pi)
    n = np.arange(1, 64)
    return 1.0 + 240.0 * np.sum(n**3 * q**n / (1.0 - q**n))


# normalized Eisenstein sums g_k = sum over (m,n) != 0 of (m + i n)^{-k};
# zero unless k = 0 mod 4.  g4 = 2 zeta(4) E4(i), g8 = 2 zeta(8) E4(i)^2
# (E8 = E4^2 in the one-dimensional weight-8 modular space).
_E4I = _eisenstein_e4_i()
G4_EXACT = (np.pi**4 / 45.0) * _E4I
G8_EXACT = (np.pi**8 / 4725.0) * _E4I**2


def _shell(s):
    """The 8s lattice points of square shell s, in units of 2L."""
    m, side = np.arange(-s, s + 1), np.arange(-s + 1, s)
    return np.concatenate([m + 1j * s, m - 1j * s, -s + 1j * side,
                           s + 1j * side])


# the lattice points in units of 2L, all together and, as views, shell by
# shell (shell s ends at 4 s (s + 1)), and the exact tails of g4 and g8
# past them: the same for every L
_POINTS = np.concatenate([_shell(s) for s in range(1, SHELLS + 1)])
_SHELL_POINTS = np.split(_POINTS, [4 * s * (s + 1) for s in range(1, SHELLS)])
_G4_TAIL = G4_EXACT - complex(np.sum(_POINTS**-4.0)).real
_G8_TAIL = G8_EXACT - complex(np.sum(_POINTS**-8.0)).real


@functools.cache
def eisenstein(k):
    """Normalized sum over (m,n) != 0 of (m+in)^{-k} (real; 0 unless 4|k),
    over the shells s whose tail bound 8 s^(2-k) / (k - 2) exceeds 1e-18
    (see the module docstring)."""
    if k % 4 != 0 or k <= 0:
        return 0.0
    if k <= 8:
        return G4_EXACT if k == 4 else G8_EXACT
    s = np.arange(1, SHELLS + 1)
    shells = np.count_nonzero(8.0 * s ** (2.0 - k) / (k - 2) > 1e-18)
    n = 4 * shells * (shells + 1)   # shell s holds 8s points
    # zeros in place of the dropped terms keep numpy's pairwise grouping of
    # the full sum, and with it the full sum's bits
    terms = np.zeros_like(_POINTS)
    terms[:n] = _POINTS[:n] ** (-float(k))
    return float(np.sum(terms).real)


@dataclass(frozen=True)
class LatticeKernel:
    """The square lattice of half edge length L, a value of L (equal and
    hashed by it): its points and Eisenstein sums, in units of 2L, are the
    module's tables, the same for every L."""

    L: float

    def __post_init__(self):
        try:   # L^2 overflows, or 8 L^2 underflows to 0, at some finite L
            ok = self.L > 0.0 and 0.0 < self.beta_bg < math.inf
        except ArithmeticError:
            ok = False
        if not ok:
            raise ValueError(f"L = {self.L}: L and pi/(8 L^2) must be finite "
                             f"and positive")

    @property
    def beta_bg(self):
        return np.pi / (8.0 * self.L**2)

    @property
    def periods(self):
        """(omega1, omega3, eta1, eta3): half periods L, iL and quasi-periods
        with eta_j omega_j = pi/4, so eta3 = -i pi/(4L), the value that
        satisfies the Legendre relation eta1 omega3 - eta3 omega1 = i pi/2."""
        eta = np.pi / (4.0 * self.L)
        return (complex(self.L, 0.0), complex(0.0, self.L),
                complex(eta, 0.0), complex(0.0, -eta))


def _check_pole(kernel, z):
    w = z / (2.0 * kernel.L)
    nearest = np.round(w.real) + 1j * np.round(w.imag)
    if np.min(np.abs(w - nearest)) * 2.0 * kernel.L < POLE_TOL * kernel.L:
        raise NearPole("evaluation point within 1e-8 L of a lattice point")


def log_sigma(kernel, z):
    """Principal determination of log sigma(z); scalar or array z."""
    z = np.asarray(z, dtype=complex)
    _check_pole(kernel, z)
    acc = np.log(z)
    comp = np.zeros_like(acc)  # Kahan compensation across shells
    for shell in _SHELL_POINTS:
        w = z[..., None] / (2.0 * kernel.L * shell)
        term = np.sum(np.log(1.0 - w) + w + 0.5 * w**2, axis=-1)
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    # exact Eisenstein tail of the omitted shells (only k = 4, 8 matter)
    u = z / (2.0 * kernel.L)
    acc = acc - u**4 * (_G4_TAIL / 4.0) - u**8 * (_G8_TAIL / 8.0)
    return acc if acc.shape else complex(acc)


def lam(kernel, z):
    """Periodic fundamental-solution kernel Lambda(z) (up to the 1/2pi
    normalization applied by the potential module)."""
    z = np.asarray(z, dtype=complex)
    out = log_sigma(kernel, z).real - kernel.beta_bg * np.abs(z) ** 2
    return out if out.shape else float(out)


def _tail_degree(r):
    """Highest power K kept by the lattice-tail series at reach r, a bound
    on every |w|: the least k >= 8 with r^k below 1e-17, down to a multiple
    of 4 (the series' powers); below TAIL_RADIUS it is at most 1936.
    Raises OutOfRadius at r >= TAIL_RADIUS."""
    if r >= TAIL_RADIUS:
        raise OutOfRadius(f"lattice-tail reach {r:.4f} (a bound on |z|/2L) "
                          f"is at or above TAIL_RADIUS = {TAIL_RADIUS}")
    k = max(int(np.ceil(np.log(1e-17) / np.log(max(r, 1e-12)))), 8)
    return k - k % 4


def lambda_tail(kernel, z):
    """Lambda(z) - log|z|: the smooth part, finite at z = 0.

    Valid for |z| < 2L; evaluated through the absolutely convergent
    Eisenstein series  -sum_{4|k} (1/k) Re(g_k w^k) - beta_bg |z|^2
    with w = z/(2L), truncated adaptively to machine precision.
    """
    z = np.asarray(z, dtype=complex)
    w = z / (2.0 * kernel.L)
    r = float(np.max(np.abs(w)))
    K = _tail_degree(r)
    out = -kernel.beta_bg * np.abs(z) ** 2
    if r > 0.0:
        w4 = w**4
        wk = w4.copy()
        k = 4
        while k <= K:
            out = out - (1.0 / k) * (eisenstein(k) * wk).real
            wk = wk * w4
            k += 4
    return out if np.ndim(out) else float(out)


@functools.cache
def _scaled_binomials(k):
    """binom(k, a) 2^-k for a = 0..k, each correctly rounded from the exact
    integer, read-only; every one lies in (0, 1], so no degree overflows."""
    row = np.empty(k + 1)
    scale, c = 1 << k, 1
    for a in range(k // 2 + 1):
        row[a] = row[k - a] = c / scale
        c = c * (k - a) // (a + 1)
    row.setflags(write=False)
    return row


PAIR_CACHE = 4   # _pair_coefficients matrices kept per process


def _powers(v, K):
    """The (K + 1, M) complex table v^a, a = 0..K, of the M values v, as one
    multiply.accumulate down its rows."""
    powers = np.empty((K + 1, v.size), dtype=complex)
    powers[0] = 1.0
    powers[1:] = v
    return np.multiply.accumulate(powers, axis=0, out=powers)


@functools.lru_cache(maxsize=PAIR_CACHE)
def _pair_coefficients(K):
    """C[a, b] = -(-1)^b binom(a+b, a) 2^-(a+b) g_{a+b} / (a+b) for 4 | a+b
    in 4..K, else 0, read-only: the series of lambda_tail regrouped by the
    powers of 2u_i and 2u_j, since (u_i - u_j)^k = 2^-k sum_a binom(k, a)
    (2u_i)^a (-2u_j)^(k-a).  Symmetric, as a and b share their parity.
    Like g_k, C is the same for every L: the PAIR_CACHE degrees used last
    are kept per process (a degree of 1936 takes 30 MB)."""
    C = np.zeros((K + 1, K + 1))
    for k in range(4, K + 1, 4):
        a = np.arange(k + 1)
        C[a, k - a] = _scaled_binomials(k) * (
            (-eisenstein(k) / k) * (1.0 - 2.0 * (a % 2)))
    C.setflags(write=False)
    return C


def lambda_tail_factors(kernel, z):
    """The factors of lambda_tail over all node pairs: (left, right), each
    of shape (2K + 6, M), with left.T @ right the (M, M) matrix of
    Lambda(z_i - z_j) - log|z_i - z_j|, for nodes given as offsets ``z``
    from a centre of the caller's choice (potential.assemble passes
    rho e(phi) about the pole); None where the product costs more than the
    elementwise series.

    With v = z/L = 2u, the binomial expansion of each (u_i - u_j)^k makes
    the series Re(P C P^T) with P = [v_i^a] (M x (K+1), one accumulate of
    the powers) and C the symmetric _pair_coefficients, (-1)^b folded in:
    left = [Re(C P^T); -Im(C P^T)] against right = [Re P^T; Im P^T].  With
    c = beta_bg L^2, -beta_bg |z_i - z_j|^2 = -c (|v_i|^2 + |v_j|^2 -
    2 Re(v_i conj v_j)) adds four rows.  K and OutOfRadius follow
    lambda_tail at the reach r = max|v| = 2 max|u| >= |u_i - u_j|.  The
    expanded terms are bounded by (|u_i| + |u_j|)^k <= r^k < 1, so rounding
    stays at machine level.  The product costs more than the elementwise
    series past about K = 3M, where forming C P^T takes M (K+1)^2 products.
    """
    z = np.asarray(z, dtype=complex)
    M = z.size
    v = z / kernel.L
    K = _tail_degree(float(np.max(np.abs(v))))
    if K > 3 * M:
        return None
    powers = _powers(v, K)
    C = _pair_coefficients(K)
    v2 = v.real**2 + v.imag**2
    c = kernel.beta_bg * kernel.L**2
    left, right = np.empty((2, 2 * K + 6, M))
    right[:K + 1], right[K + 1:2 * K + 2] = powers.real, powers.imag
    np.matmul(C, right[:K + 1], out=left[:K + 1])
    np.matmul(C, right[K + 1:2 * K + 2], out=left[K + 1:2 * K + 2])
    left[K + 1:2 * K + 2] *= -1.0
    left[2 * K + 2], left[2 * K + 3] = v2, 1.0
    left[2 * K + 4], left[2 * K + 5] = v.real, v.imag
    right[2 * K + 2], right[2 * K + 3] = -c, -c * v2
    right[2 * K + 4], right[2 * K + 5] = 2.0 * c * v.real, 2.0 * c * v.imag
    return left, right


def lambda_tail_nodes(kernel, z):
    """lambda_tail over all node pairs: the (M, M) matrix of
    Lambda(z_i - z_j) - log|z_i - z_j|, for nodes given as offsets ``z``
    from a centre, as the product of lambda_tail_factors; where that costs
    more, the elementwise lambda_tail."""
    factors = lambda_tail_factors(kernel, z)
    if factors is None:
        z = np.asarray(z, dtype=complex)
        return lambda_tail(kernel, z[:, None] - z[None, :])
    left, right = factors
    return left.T @ right


def legendre_residual(kernel):
    """|eta1 omega3 - eta3 omega1 - i pi/2|; zero for a consistent lattice."""
    omega1, omega3, eta1, eta3 = kernel.periods
    return abs(eta1 * omega3 - eta3 * omega1 - 1j * np.pi / 2.0)
