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
rapidly convergent q-series for E4(i) (q = e^{-2 pi}); beyond k = 12 the
truncation at SHELLS = 64 shells is already below 1e-17.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NearPole, OutOfRadius

POLE_TOL = 1e-8
TAIL_RADIUS = 0.995   # lambda_tail needs |z| / (2L) below this
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


@dataclass
class LatticeKernel:
    """Square lattice of half edge length L, truncated at SHELLS shells."""

    L: float
    eta1: complex = field(init=False)
    eta3: complex = field(init=False)

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("L must be positive")
        L = self.L
        self.omega1 = complex(L, 0.0)
        self.omega3 = complex(0.0, L)
        # eta_j omega_j = pi/4 on the square lattice; with omega3 = iL this
        # forces eta3 = -i pi/(4L), the value that satisfies the Legendre
        # relation eta1 omega3 - eta3 omega1 = i pi / 2.
        self.eta1 = complex(np.pi / (4.0 * L), 0.0)
        self.eta3 = complex(0.0, -np.pi / (4.0 * L))
        self.beta_bg = np.pi / (8.0 * L**2)

        # lattice points in units of 2L, grouped by square shell
        self._shells = []
        for s in range(1, SHELLS + 1):
            m = np.arange(-s, s + 1)
            top = m + 1j * s
            bot = m - 1j * s
            side_n = np.arange(-s + 1, s)
            left = -s + 1j * side_n
            right = s + 1j * side_n
            self._shells.append(np.concatenate([top, bot, left, right]))
        pts = np.concatenate(self._shells)
        # partial normalized Eisenstein sums over the kept shells
        g4_partial = complex(np.sum(pts**-4.0))
        g8_partial = complex(np.sum(pts**-8.0))
        self._g4_tail = G4_EXACT - g4_partial.real
        self._g8_tail = G8_EXACT - g8_partial.real
        self._eis_cache = {4: G4_EXACT, 8: G8_EXACT}
        self._pts = pts

    def eisenstein(self, k):
        """Normalized sum over (m,n) != 0 of (m+in)^{-k} (real; 0 unless 4|k)."""
        if k % 4 != 0 or k <= 0:
            return 0.0
        if k not in self._eis_cache:
            self._eis_cache[k] = float(np.sum(self._pts**(-float(k))).real)
        return self._eis_cache[k]


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
    for shell in kernel._shells:
        w = z[..., None] / (2.0 * kernel.L * shell)
        term = np.sum(np.log(1.0 - w) + w + 0.5 * w**2, axis=-1)
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    # exact Eisenstein tail of the omitted shells (only k = 4, 8 matter)
    u = z / (2.0 * kernel.L)
    acc = acc - u**4 * (kernel._g4_tail / 4.0) - u**8 * (kernel._g8_tail / 8.0)
    return acc if acc.shape else complex(acc)


def lam(kernel, z):
    """Periodic fundamental-solution kernel Lambda(z) (up to the 1/2pi
    normalization applied by the potential module)."""
    z = np.asarray(z, dtype=complex)
    out = log_sigma(kernel, z).real - kernel.beta_bg * np.abs(z) ** 2
    return out if out.shape else float(out)


def lambda_tail(kernel, z, k_cap=2000):
    """Lambda(z) - log|z|: the smooth part, finite at z = 0.

    Valid for |z| < 2L; evaluated through the absolutely convergent
    Eisenstein series  -sum_{4|k} (1/k) Re(g_k w^k) - beta_bg |z|^2
    with w = z/(2L), truncated adaptively to machine precision.
    """
    z = np.asarray(z, dtype=complex)
    w = z / (2.0 * kernel.L)
    r = float(np.max(np.abs(w)))
    if r >= TAIL_RADIUS:
        raise OutOfRadius(f"|z|/(2L) = {r:.3f} too close to 1")
    out = -kernel.beta_bg * np.abs(z) ** 2
    if r > 0.0:
        k_max = int(np.ceil(np.log(1e-17) / np.log(max(r, 1e-12))))
        k_max = min(max(k_max, 8), k_cap)
        w4 = w**4
        wk = w4.copy()
        k = 4
        while k <= k_max:
            out = out - (1.0 / k) * (kernel.eisenstein(k) * wk).real
            wk = wk * w4
            k += 4
    return out if np.ndim(out) else float(out)


def lambda_series_small(kernel, z, k_max=None):
    """Series form of Lambda for |z| < 0.9 * 2L; agrees with lam to ~1e-11.

    ``k_max`` caps the power tail (None: at 2000); below the cap the depth
    stops where the terms fall under machine precision.
    """
    z = np.asarray(z, dtype=complex)
    w = np.abs(z) / (2.0 * kernel.L)
    if np.max(w) >= 0.9:
        raise OutOfRadius("lambda_series_small requires |z| < 0.9 * 2L")
    _check_pole(kernel, z)
    out = np.log(np.abs(z)) + lambda_tail(
        kernel, z, k_cap=2000 if k_max is None else k_max)
    return out if np.ndim(out) else float(out)


def legendre_residual(kernel):
    """|eta1 omega3 - eta3 omega1 - i pi/2|; zero for a consistent lattice."""
    return abs(kernel.eta1 * kernel.omega3 - kernel.eta3 * kernel.omega1
               - 1j * np.pi / 2.0)
