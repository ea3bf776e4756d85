"""Linearization of the Fourier-domain DR map and its singular-value analysis.

At a magnitude-consistent point the DR map linearizes, in the rotated frame
v = conj(w0) . (y - y0), to the real-linear Jacobian

    S_loc v = (I - B*B) Re(v) + i B*B Im(v),        B = A diag(w0),

whose dynamics are governed by the singular values 1 = l_1 >= ... >= l_2n = 0
of the real 2n x N form of B.  The second singular value l_2 is the local
contraction rate of the iteration; l_2 < 1 is the spectral gap that makes
the convergence geometric.  This module provides matrix-free applications
of B and S_loc, a dense SVD oracle for desk-scale checks, and a deflated
power iteration that estimates l_2 at scale.
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
    """Estimates of the extreme singular values and the predicted local rate."""

    lambda1: float
    lambda2: float
    lambda2n: float
    residual: float
    predicted_rate: float
    pairing_defect: float
    power_iters: int
    converged: bool = True
    note: str = ""


CSV_FIELDS = ("seed", "variant", "n", "N", "lambda1", "lambda2", "lambda2n",
              "residual", "power_iters", "predicted_rate")


def report_csv_row(report: SpectralReport, seed: int, variant: str, n: int, N: int) -> list:
    return [seed, variant, n, N, report.lambda1, report.lambda2, report.lambda2n,
            report.residual, report.power_iters, report.predicted_rate]


def lambda2_power(
    pt: LinearizationPoint,
    op: PropagationOp,
    tol: float = 1e-9,
    max_iters: int = 50_000,
    seed: int = 0,
) -> SpectralReport:
    """Estimate l_2 by power iteration on the real Gram map, deflating the top pair.

    The top left singular vector is known exactly (the realification of the
    object, with unit singular value), so every iterate is re-orthogonalized
    against it and the iteration converges to l_2^2.  The reported residual
    is ||M u - rho u|| for the final unit iterate u and Rayleigh quotient rho.
    """
    x0 = apply_a(op, pt.y)
    nrm = np.linalg.norm(x0)
    if nrm == 0:
        raise ValueError("lambda2_power: linearization point has A y = 0")
    xi1 = realify(x0) / nrm

    def gram(u):
        return apply_realB(pt, op, apply_realB_T(pt, op, u))

    lambda1 = float(np.linalg.norm(apply_realB_T(pt, op, xi1)))
    lambda2n = float(np.linalg.norm(apply_realB_T(pt, op, realify(-1j * x0) / nrm)))

    rng = np.random.default_rng(seed)
    u = rng.standard_normal(2 * op.n)
    u -= (xi1 @ u) * xi1
    u /= np.linalg.norm(u)

    rho = 0.0
    residual = np.inf
    iters = 0
    converged = False
    for iters in range(1, max_iters + 1):
        w = gram(u)
        w -= (xi1 @ w) * xi1
        rho = float(u @ w)
        residual = float(np.linalg.norm(w - rho * u))
        wn = np.linalg.norm(w)
        if wn == 0:
            break
        u = w / wn
        if residual <= tol:
            converged = True
            break

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
        power_iters=iters,
        converged=converged,
        note="" if converged else f"power iteration hit max_iters={max_iters}",
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
