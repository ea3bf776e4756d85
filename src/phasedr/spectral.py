"""Linearization of the Fourier-domain DR map and its singular-value analysis.

At a magnitude-consistent point the DR map linearizes, in the rotated frame
v = conj(w0) . (y - y0), to the real-linear Jacobian

    S_loc v = (I - B*B) Re(v) + i B*B Im(v),        B = A diag(w0),

whose dynamics are governed by the singular values 1 = l_1 >= ... >= l_2n = 0
of the real 2n x N form of B.  The second singular value l_2 is the local
contraction rate of the iteration; l_2 < 1 is the spectral gap that makes
the convergence geometric.  This module provides the real form of B and
its transpose, S_loc and the gap functional, each one pass of A and/or A*
through one OperatorPlan; a dense SVD oracle for desk-scale checks; and a
deflated Lanczos iteration that estimates l_2 at scale.  That iteration
applies the Gram map once per step and forms the top Ritz pair of its
tridiagonal only every RITZ_EVERY steps (and at a restart or its last
step); it stops only on an explicit residual, and its report counts every
Gram matvec, those of the explicit checks included.  No sum whose order a
threaded BLAS could change runs on BLAS, so its report is the same for
every BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import OperatorPlan, PropagationOp, _plan, apply_a, apply_astar
from .grids import _dot, _norm, _vector, phase_factor, realify, unrealify


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


def apply_realB(pt: LinearizationPoint, op: PropagationOp, r, plan=None) -> np.ndarray:
    """Real form [Re B; Im B] of B = A diag(omega) applied to a real vector:
    R^N -> R^{2n}.  omega . r is formed in the plan's flat, which A reads
    in place, one float product per part, so no complex copy of r is made;
    r may be the plan's own buffer, as apply_realB_T returns it.  plan,
    here and in apply_realB_T, is an OperatorPlan of op, as for apply_a;
    without one the call makes its own."""
    plan = _plan(plan, OperatorPlan, op)
    r = _vector(r, np.float64, op.N, "apply_realB")
    np.multiply(pt.omega.imag, r, out=plan.flat.imag)  # before .real, which r may be
    np.multiply(pt.omega.real, r, out=plan.flat.real)
    return realify(apply_a(op, plan.flat, plan=plan))


def apply_realB_T(pt: LinearizationPoint, op: PropagationOp, u, plan=None) -> np.ndarray:
    """Transpose of the real form: R^{2n} -> R^N, Re(B* w) for w = G^{-1}(u),
    with B* w = conj(omega) . A* w.  A* w and the product stay in the plan's
    flat, so the result is a real view of that buffer, which the next call
    on the plan overwrites."""
    plan = _plan(plan, OperatorPlan, op)
    u = _vector(u, np.float64, 2 * op.n, "apply_realB_T")
    y = apply_astar(op, unrealify(u), plan=plan)
    return np.multiply(np.conjugate(y, out=y), pt.omega, out=y).real  # Re of conj(B* w)


def apply_Sloc(pt: LinearizationPoint, op: PropagationOp, v) -> np.ndarray:
    """Jacobian of the DR map at the solution in the rotated frame (a real-linear map).

        S_loc v = (I - B*B) Re(v) + i B*B Im(v) = Re(v) - B*B conj(v),

    which assumes |y| = b at pt.  The two forms agree because B*B is
    complex-linear: B*B conj(v) = B*B Re(v) - i B*B Im(v).  So S_loc takes
    one A and one A*, on one plan.
    """
    v = _vector(v, np.complex128, op.N, "apply_Sloc")
    plan = OperatorPlan(op)
    w = np.multiply(pt.omega, np.conjugate(v, out=plan.flat), out=plan.flat)
    y = apply_astar(op, apply_a(op, w, plan=plan), plan=plan)
    return np.real(v) - np.conj(pt.omega) * y


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
    """Materialize B = A diag(omega) as an n x N array (small problems only).

    Row j is conj(A* e_j) . omega, with A* e_j from apply_astar through
    one plan, copied out of the plan's flat into the row."""
    plan, rows = OperatorPlan(op), np.empty((op.n, op.N), dtype=np.complex128)
    for row, e in zip(rows, np.eye(op.n, dtype=np.complex128)):
        np.copyto(row, apply_astar(op, e, plan=plan))
    return np.multiply(np.conj(rows, out=rows), pt.omega, out=rows)


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
    """Estimates of the extreme singular values l_1, l_2 and l_2n.

    `lambda2` is also the predicted local rate of the DR iterations.
    `power_iters` counts every Gram matvec (one `apply_realB` each): the
    Lanczos steps and the explicit-residual checks.  `converged` says
    whether an explicit residual ||M u - rho u|| reached the tolerance;
    both keep their power-iteration names because benchmark and experiment
    code read them.  Without convergence `lambda2` and `residual` are those
    of the last Ritz pair formed, which lambda2_power forms every
    RITZ_EVERY steps and at its last step, and `spectral-cert` exits 3.
    `next_ritz` is the square root of the second Ritz value of the Lanczos
    basis at the last Ritz pair (nan with fewer than two basis vectors).  By
    Cauchy interlacing it is at most l_3, so `lambda2 - next_ritz` is at
    least the gap l_2 - l_3 that the estimate had to resolve.  `restarts`
    counts how often the basis filled up and the iteration restarted from
    its top Ritz vector, and how often a seeded start was drawn again
    because deflating the top pair left at most 1e-8 of its norm (a draw
    along the object's realification, up to roundoff).
    """

    lambda1: float
    lambda2: float
    lambda2n: float
    residual: float
    pairing_defect: float
    power_iters: int
    converged: bool = True
    next_ritz: float = float("nan")
    restarts: int = 0


# Most Lanczos vectors held at once (LANCZOS_BASIS x 2n floats); a full basis
# restarts from its top Ritz vector.  8x8 and 16x16 certificates converge
# well inside it.
LANCZOS_BASIS = 200
# Lanczos steps between extractions of the top Ritz pair (an eigvalsh and two
# solves on T, which cost more than a 16x16 Gram matvec).  A stop can come up
# to RITZ_EVERY - 1 steps later than with an extraction at every step.
RITZ_EVERY = 8


def _top_eigenvector(T: np.ndarray, top: float) -> np.ndarray:
    """Unit eigenvector of the symmetric tridiagonal T for its largest eigenvalue `top`.

    Two steps of inverse iteration with a shift just above `top`, where
    T - shift I is negative definite, so its LDL^T factorization needs no
    pivoting.  The factorization and the solves are float loops over the
    k rows of T: LAPACK's dense solve runs threaded BLAS from about
    100 x 100 on, whose sums then depend on the thread count, and
    np.linalg.eigh's divide-and-conquer path can stall for tens of ms per
    call on a busy machine.
    """
    k = len(T)
    a = (np.diagonal(T) - (top + 8 * k * np.finfo(float).eps)).tolist()
    b = np.diagonal(T, 1).tolist()
    d, l = a[:1], [0.0]  # T - shift I = L diag(d) L^T, L unit lower bidiagonal
    for i in range(1, k):
        l.append(b[i - 1] / d[i - 1])
        d.append(a[i] - l[i] * b[i - 1])
    x = [1.0] * k
    for _ in range(2):  # normalized once: a solve grows x by about 1 / (8 k eps) at most
        for i in range(1, k):
            x[i] -= l[i] * x[i - 1]
        x[k - 1] /= d[k - 1]
        for i in range(k - 2, -1, -1):
            x[i] = x[i] / d[i] - l[i + 1] * x[i + 1]
    s = np.array(x)
    return s / _norm(s)


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
    from a seeded random start, drawn again from the same generator while
    deflation leaves it at most 1e-8 of its norm.  Every step applies M once
    and extends the tridiagonal T; the top Ritz pair of T, with Lanczos's
    own residual estimate beta_k |s_k|, is formed only every RITZ_EVERY
    steps, when the basis is full (a restart), when beta_k vanishes, and
    when the next matvec would reach `max_iters`.  Once that estimate reaches
    `tol`, the explicit residual ||M u - rho u|| of the Ritz vector u and
    its Rayleigh quotient rho is computed with one more matvec; the
    iteration stops only when that is at most `tol`.  `max_iters` caps the
    Gram matvecs, the explicit-residual ones included, and `power_iters`
    counts them all.  Without convergence the reported residual is the last
    estimate.  The function keeps the name its callers and the benchmark use.
    Every application of B and B^T goes through one OperatorPlan.  The inner
    products, norms and basis projections are einsum sums (grids._dot) and
    the tridiagonal solves are plain loops, so no digit depends on the BLAS
    thread count.
    """
    plan = OperatorPlan(op)
    x0 = apply_a(op, pt.y, plan=plan)
    nrm = _norm(x0)
    if nrm == 0:
        raise ValueError("lambda2_power: linearization point has A y = 0")
    xi1 = realify(x0) / nrm

    def gram(u):
        w = apply_realB(pt, op, apply_realB_T(pt, op, u, plan), plan)
        return w - _dot(xi1, w) * xi1

    lambda1 = _norm(apply_realB_T(pt, op, xi1, plan))
    lambda2n = _norm(apply_realB_T(pt, op, realify(-1j * x0) / nrm, plan))

    # A draw that lies along xi1 up to roundoff deflates to noise; draw again.
    rng, restarts, drawn, deflated = np.random.default_rng(seed), -1, 0.0, 0.0
    while deflated <= 1e-8 * drawn:
        u = rng.standard_normal(2 * op.n)
        drawn = _norm(u)
        u -= _dot(xi1, u) * xi1
        deflated, restarts = _norm(u), restarts + 1
    u /= deflated

    cap = min(LANCZOS_BASIS, 2 * op.n - 1)
    V = np.empty((cap, 2 * op.n))
    T = np.zeros((cap, cap))  # the current cycle's tridiagonal, filled as it grows
    V[0] = u
    k = matvecs = 0
    rho, residual, next_ritz = 0.0, np.inf, float("nan")
    converged = False
    while matvecs < max_iters:
        w = gram(V[k])
        matvecs += 1
        T[k, k] = _dot(V[k], w)
        basis = V[: k + 1]
        for _ in range(2):
            # The projections V w by einsum: a threaded BLAS gemv splits
            # these sums over threads from about 64x64 on.
            w -= basis.T @ np.einsum("ij,j->i", basis, w)
            w -= _dot(xi1, w) * xi1
        beta = _norm(w)
        k += 1
        restart = k == cap or beta <= np.finfo(float).eps
        final = restart or matvecs >= max_iters - 1  # u is needed after this step
        if final or k % RITZ_EVERY == 0:
            theta = np.linalg.eigvalsh(T[:k, :k])
            s = _top_eigenvector(T[:k, :k], theta[-1])
            rho, residual = float(theta[-1]), beta * abs(float(s[-1]))
            next_ritz = float(np.sqrt(max(theta[-2], 0.0))) if k > 1 else float("nan")
            if residual <= tol or final:
                u = s @ V[:k]
                u /= _norm(u)
            if residual <= tol and matvecs < max_iters:
                mu = gram(u)
                matvecs += 1
                rho = _dot(u, mu)
                residual = _norm(mu - rho * u)
                if residual <= tol:
                    converged = True
                    break
        if restart:
            V[0] = u
            k = 0
            restarts += 1
        else:
            T[k - 1, k] = T[k, k - 1] = beta
            V[k] = w / beta

    lam2 = float(np.sqrt(max(rho, 0.0)))
    r = apply_realB_T(pt, op, u, plan)
    r_sq = _dot(r, r)  # the next call overwrites r
    r_rot = apply_realB_T(pt, op, realify(-1j * unrealify(u)), plan)
    return SpectralReport(
        lambda1=lambda1,
        lambda2=lam2,
        lambda2n=lambda2n,
        residual=residual,
        pairing_defect=abs(r_sq + _dot(r_rot, r_rot) - 1.0),
        power_iters=matvecs,
        converged=converged,
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


def check_gap_condition(pt: LinearizationPoint, op: PropagationOp, u) -> GapDiagnostic:
    """The gap functional and defects of u, both read off one A* u, with
    B* u = conj(omega) . A* u."""
    y = apply_astar(op, _vector(u, np.complex128, op.n, "check_gap_condition"))
    return GapDiagnostic(im_norm=float(np.linalg.norm(np.imag(np.conj(pt.omega) * y))),
                         defects=np.real(y * np.conj(pt.y)))
