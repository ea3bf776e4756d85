"""Linearization of the Fourier-domain DR map and its singular-value analysis.

At a magnitude-consistent point the DR map linearizes, in the rotated frame
v = conj(w0) . (y - y0), to the real-linear Jacobian

    S_loc v = (I - B*B) Re(v) + i B*B Im(v),        B = A diag(w0),

whose dynamics are governed by the singular values 1 = l_1 >= ... >= l_2n = 0
of the real 2n x N form of B.  The second singular value l_2 is the local
contraction rate of the iteration; l_2 < 1 is the spectral gap that makes
the convergence geometric.  This module provides matrix-free applications
of B and S_loc, a dense SVD oracle for desk-scale checks, and a deflated
Lanczos iteration that estimates l_2 at scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import PropagationOp, apply_a, apply_astar
from .grids import phase_factor, realify, unrealify


@dataclass(frozen=True)
class LinearizationPoint:
    """Point y where the DR map is linearized, with the data magnitudes b.

    At the solution y = A* x0 and b = |y|; omega is the phase factor of y
    (1 where |y| vanishes).
    """

    y: np.ndarray
    b: np.ndarray
    omega: np.ndarray


def linearize_at_solution(op: PropagationOp, x0) -> LinearizationPoint:
    y0 = apply_astar(op, x0)
    return LinearizationPoint(y=y0, b=np.abs(y0), omega=phase_factor(y0))


def apply_B(pt: LinearizationPoint, op: PropagationOp, v) -> np.ndarray:
    """B v = A(omega . v): C^N -> C^n."""
    return apply_a(op, pt.omega * np.asarray(v, dtype=np.complex128))


def apply_Bstar(pt: LinearizationPoint, op: PropagationOp, u) -> np.ndarray:
    """B* u = conj(omega) . (A* u): C^n -> C^N; B B* = I."""
    return np.conj(pt.omega) * apply_astar(op, u)


def apply_realB(pt: LinearizationPoint, op: PropagationOp, r) -> np.ndarray:
    """Real form [Re B; Im B] applied to a real vector: R^N -> R^{2n}."""
    r = np.asarray(r, dtype=np.float64)
    return realify(apply_B(pt, op, r.astype(np.complex128)))


def apply_realB_T(pt: LinearizationPoint, op: PropagationOp, u) -> np.ndarray:
    """Transpose of the real form: R^{2n} -> R^N, computed as Re(B* w), w = G^{-1}(u)."""
    u = np.asarray(u, dtype=np.float64)
    if u.size != 2 * op.n:
        raise ValueError(f"apply_realB_T: expected length {2 * op.n}, got {u.size}")
    return np.real(apply_Bstar(pt, op, unrealify(u)))


def apply_Sloc(pt: LinearizationPoint, op: PropagationOp, v) -> np.ndarray:
    """Jacobian of the DR map at the solution in the rotated frame (a real-linear map).

        S_loc v = (I - B*B) Re(v) + i B*B Im(v),

    which assumes |y| = b at pt.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != pt.y.shape:
        raise ValueError("apply_Sloc: length mismatch")

    def bstar_b(z):
        return apply_Bstar(pt, op, apply_B(pt, op, z))

    re = np.real(v).astype(np.complex128)
    im = np.imag(v).astype(np.complex128)
    return re - bstar_b(re) + 1j * bstar_b(im)


@dataclass(frozen=True)
class SingularSystem:
    """Full singular system of the dense real form of B (desk scale)."""

    values: np.ndarray      # (2n,) descending
    left: np.ndarray        # (2n, 2n), columns u_k
    right: np.ndarray       # (N, 2n),  columns v_k

    def pairing_defect(self) -> float:
        s = self.values
        return float(np.abs(s**2 + s[::-1] ** 2 - 1.0).max())


DENSE_GUARD = 1_000_000


def dense_B(pt: LinearizationPoint, op: PropagationOp) -> np.ndarray:
    """Materialize B = A diag(omega) as an n x N array (small problems only)."""
    astar = np.empty((op.N, op.n), dtype=np.complex128)
    eye = np.eye(op.n, dtype=np.complex128)
    for j in range(op.n):
        astar[:, j] = apply_astar(op, eye[:, j])
    return astar.conj().T * pt.omega[None, :]


def svd_oracle(pt: LinearizationPoint, op: PropagationOp) -> SingularSystem:
    """Dense SVD of the real form [Re B; Im B]; the reference for l_2 estimates."""
    two_n, N = 2 * op.n, op.N
    if two_n * N > DENSE_GUARD:
        raise ValueError(f"svd_oracle: problem too large ({two_n}x{N} > {DENSE_GUARD} entries)")
    if two_n > N:
        raise ValueError("svd_oracle: needs N >= 2n")
    B = dense_B(pt, op)
    realB = np.vstack([B.real, B.imag])
    left, s, right_t = np.linalg.svd(realB, full_matrices=False)
    return SingularSystem(values=s, left=left, right=right_t.T)


@dataclass(frozen=True)
class SpectralReport:
    """Estimates of the extreme singular values and the predicted local rate.

    `power_iters` counts the Gram matvecs (one `apply_realB` each) and
    `converged` says whether the residual reached the tolerance; both keep
    their power-iteration names because benchmark and experiment code read
    them.  `next_ritz` is the square root of the second Ritz value of the
    final Lanczos basis (nan with fewer than two basis vectors).  By Cauchy
    interlacing it is at most l_3, so `lambda2 - next_ritz` is at least the
    gap l_2 - l_3 that the estimate had to resolve.  `restarts` counts how
    often the basis filled up and the iteration restarted from its top Ritz
    vector.
    """

    lambda1: float
    lambda2: float
    lambda2n: float
    residual: float
    predicted_rate: float
    pairing_defect: float
    power_iters: int
    converged: bool = True
    note: str = ""
    next_ritz: float = float("nan")
    restarts: int = 0


CSV_FIELDS = ("seed", "variant", "n", "N", "lambda1", "lambda2", "lambda2n",
              "residual", "power_iters", "predicted_rate", "next_ritz", "restarts", "trial")


def report_csv_row(report: SpectralReport, seed: int, variant: str, n: int, N: int,
                   trial: int) -> list:
    return [seed, variant, n, N, report.lambda1, report.lambda2, report.lambda2n,
            report.residual, report.power_iters, report.predicted_rate,
            report.next_ritz, report.restarts, trial]


# Most Lanczos vectors held at once (LANCZOS_BASIS x 2n floats); a full basis
# restarts from its top Ritz vector.  8x8 and 16x16 certificates converge
# well inside it.
LANCZOS_BASIS = 200


def _top_eigenvector(T: np.ndarray, top: float) -> np.ndarray:
    """Unit eigenvector of the symmetric T for its largest eigenvalue `top`.

    Two steps of inverse iteration with a shift just above `top`, where
    T - shift I is negative definite.  (np.linalg.eigh's divide-and-conquer
    path runs multithreaded BLAS and can stall for tens of ms per call on a
    busy machine; eigvalsh and solve do not.)
    """
    shifted = T - (top + 8 * len(T) * np.finfo(float).eps) * np.eye(len(T))
    s = np.ones(len(T))
    for _ in range(2):
        s = np.linalg.solve(shifted, s)
        s /= np.linalg.norm(s)
    return s


def lambda2_power(
    pt: LinearizationPoint,
    op: PropagationOp,
    tol: float = 1e-9,
    max_iters: int = 50_000,
    seed: int = 0,
) -> SpectralReport:
    """Estimate l_2 by Lanczos on the real Gram map, deflating the top pair.

    The top left singular vector xi1 is known exactly (the realification of
    the object, with unit singular value), so the Gram map M = B_r B_r^T is
    applied with xi1 projected out and its largest eigenvalue is l_2^2.
    Symmetric Lanczos with full reorthogonalization builds a Krylov basis
    from a seeded random start.  Once Lanczos's own residual estimate
    beta_k |s_k| of the top Ritz pair reaches `tol`, the explicit residual
    ||M u - rho u|| of the Ritz vector u and its Rayleigh quotient rho is
    computed with one more matvec; the iteration stops when that is at most
    `tol`.  `max_iters` caps the Gram matvecs, the explicit-residual ones
    included.  Without convergence the reported residual is the last
    estimate.  The function keeps the name its callers and the benchmark use.
    """
    x0 = apply_a(op, pt.y)
    nrm = np.linalg.norm(x0)
    if nrm == 0:
        raise ValueError("lambda2_power: linearization point has A y = 0")
    xi1 = realify(x0) / nrm

    def gram(u):
        w = apply_realB(pt, op, apply_realB_T(pt, op, u))
        return w - (xi1 @ w) * xi1

    lambda1 = float(np.linalg.norm(apply_realB_T(pt, op, xi1)))
    lambda2n = float(np.linalg.norm(apply_realB_T(pt, op, realify(-1j * x0) / nrm)))

    rng = np.random.default_rng(seed)
    u = rng.standard_normal(2 * op.n)
    u -= (xi1 @ u) * xi1
    u /= np.linalg.norm(u)

    cap = min(LANCZOS_BASIS, 2 * op.n - 1)
    V = np.empty((cap, 2 * op.n))
    alpha = np.empty(cap)
    beta = np.empty(cap)
    V[0] = u
    k = matvecs = restarts = 0
    rho, residual, next_ritz = 0.0, np.inf, float("nan")
    converged = False
    while matvecs < max_iters:
        w = gram(V[k])
        matvecs += 1
        alpha[k] = V[k] @ w
        basis = V[: k + 1]
        for _ in range(2):
            w -= basis.T @ (basis @ w)
            w -= (xi1 @ w) * xi1
        beta[k] = np.linalg.norm(w)
        k += 1

        T = np.diag(alpha[:k]) + np.diag(beta[: k - 1], -1) + np.diag(beta[: k - 1], 1)
        theta = np.linalg.eigvalsh(T)
        s = _top_eigenvector(T, theta[-1])
        rho, residual = float(theta[-1]), float(beta[k - 1] * abs(s[-1]))
        next_ritz = float(np.sqrt(max(theta[-2], 0.0))) if k > 1 else float("nan")
        u = s @ V[:k]
        u /= np.linalg.norm(u)
        if residual <= tol and matvecs < max_iters:
            mu = gram(u)
            matvecs += 1
            rho = float(u @ mu)
            residual = float(np.linalg.norm(mu - rho * u))
            if residual <= tol:
                converged = True
                break
        if k == cap or beta[k - 1] <= np.finfo(float).eps:
            V[0] = u
            k = 0
            restarts += 1
        else:
            V[k] = w / beta[k - 1]

    lam2 = float(np.sqrt(max(rho, 0.0)))
    pair = abs(
        np.linalg.norm(apply_realB_T(pt, op, u)) ** 2
        + np.linalg.norm(apply_realB_T(pt, op, realify(-1j * unrealify(u)))) ** 2
        - 1.0
    )
    return SpectralReport(
        lambda1=lambda1,
        lambda2=lam2,
        lambda2n=lambda2n,
        residual=residual,
        predicted_rate=lam2,
        pairing_defect=float(pair),
        power_iters=matvecs,
        converged=converged,
        note="" if converged else f"Lanczos hit max_iters={max_iters}",
        next_ritz=next_ritz,
        restarts=restarts,
    )


@dataclass(frozen=True)
class GapDiagnostic:
    """Evaluation of the gap functional ||Im(B* u)|| and its alignment defects.

    im_norm reaches 1 on a unit vector u exactly when the measured field of u
    is everywhere orthogonal (as a planar vector) to that of the object, which
    happens only along +/- i*x0 when the gap condition holds; defects are the
    componentwise inner products Re((A*u)_j conj(y0_j)).
    """

    im_norm: float
    defects: np.ndarray

    @property
    def max_defect(self) -> float:
        return float(np.abs(self.defects).max())


def check_gap_condition(pt: LinearizationPoint, op: PropagationOp, u) -> GapDiagnostic:
    u = np.asarray(u, dtype=np.complex128)
    im_norm = float(np.linalg.norm(np.imag(apply_Bstar(pt, op, u))))
    defects = np.real(apply_astar(op, u) * np.conj(pt.y))
    return GapDiagnostic(im_norm=im_norm, defects=defects)
