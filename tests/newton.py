"""The reference oracle's Newton loop in numpy, for the tests: what
``_kernel.Hessian.newton`` computes, step for step, with ``np.sum`` for
every dot product, norm and sum of P, which the compiled loop adds
pairwise in numpy's order. So the two agree bitwise: in w, in every number
they report and in every outcome.

The Hessian products and diagonals are the numpy expressions that the
compiled passes keep the bits of (``tests/test_hessian.py`` checks them).
"""

import math

import numpy as np

import dfsdca._kernel as _kernel
from dfsdca.solver import PrimalPoint


def numpy_product(ds, c, lam, p):
    return ds.combine(c * ds.margins(p)) / ds.n + lam * p


def numpy_diagonal(ds, c, lam):
    return np.bincount(ds.indices, ds.data * ds.data * np.repeat(c, ds.nnz),
                       minlength=ds.d) / ds.n + lam


def numpy_cg(ds, lam, c, grad, rtol, cap):
    """``(status, delta, where, quantity)`` of the compiled CG on the
    Hessian at the curvatures ``c``; delta is None unless status is OK."""
    diag = numpy_diagonal(ds, c, lam)
    j = int(np.argmin(diag))
    if not diag[j] > 0.0:
        return _kernel.CONCAVE_COORDINATE, None, j, float(diag[j])
    x, r = np.zeros(ds.d), -grad
    z = r / diag
    p, rz = z, np.sum(r * z)
    rnorm = math.sqrt(np.sum(r * r))
    for k in range(1, cap + 1):
        Hp = numpy_product(ds, c, lam, p)
        pHp = np.sum(p * Hp)
        if not pHp > 0.0:
            return _kernel.CONCAVE_DIRECTION, None, k, float(pHp)
        a = rz / pHp
        x = x + a * p
        r = r - a * Hp
        rnorm = math.sqrt(np.sum(r * r))
        if rnorm <= rtol:
            return _kernel.OK, x, 0, 0.0
        z = r / diag
        rz, rz_old = np.sum(r * z), rz
        p = z + (rz / rz_old) * p
    return _kernel.CG_CAP, None, cap, rnorm


def numpy_newton(problem, w, *, target, forcing, armijo, slack_ulps, max_newton,
                 stall, max_halvings, cg_per_dim, cg_extra) -> _kernel.Newton:
    """``Hessian(problem.dataset, problem.lam).newton(problem.loss.kernel,
    w, ...)``: the same report, and ``w`` overwritten the same way."""
    ds, lam = problem.dataset, problem.lam

    def value(point):
        return point.losses.sum() / ds.n + 0.5 * lam * np.sum(point.w * point.w)

    at = PrimalPoint(problem, w.copy())
    P, best, best_norm = value(at), at.w, None
    it = stalled = where = solves = 0
    points, quantity, rtol = 1, 0.0, 0.0
    status = _kernel.NEWTON_CAP
    for it in range(1, max_newton + 1):
        grad = at.gradient
        gnorm = math.sqrt(np.sum(grad * grad))
        if gnorm <= target:
            best, status = at.w, _kernel.OK
            break
        if best_norm is None or gnorm < best_norm:
            best, best_norm, stalled = at.w, gnorm, 0
        else:
            stalled += 1
            if stalled == stall:
                status = _kernel.STALLED
                break
        solves += 1
        rtol = forcing * gnorm
        status, delta, where, quantity = numpy_cg(
            ds, lam, problem.loss.curvatures(None, at.margins), grad, rtol, cg_per_dim * ds.d + cg_extra)
        if status != _kernel.OK:
            break
        slope = np.sum(grad * delta)
        slack = slack_ulps * np.spacing(abs(P))
        s = 1.0
        for _ in range(max_halvings):
            nxt = PrimalPoint(problem, at.w + s * delta)
            points += 1
            if value(nxt) <= P + armijo * s * slope + slack:
                break
            s *= 0.5
        else:
            status = _kernel.NO_DECREASE
            break
        at, P = nxt, value(nxt)
        status = _kernel.NEWTON_CAP
    w[:] = best
    return _kernel.Newton(status, it, where, points, solves, quantity, rtol)


def record_newton(monkeypatch) -> list:
    """Patches ``Hessian.newton`` to append ``(start, options, report, w)``
    for each call to the list it returns: the w it started from, its
    keyword options, its report and the w it left."""
    calls, newton = [], _kernel.Hessian.newton

    def record(self, loss, w, **options):
        start = w.copy()
        run = newton(self, loss, w, **options)
        calls.append((start, options, run, w.copy()))
        return run

    monkeypatch.setattr(_kernel.Hessian, "newton", record)
    return calls


def agrees_with_numpy(problem, call) -> bool:
    """Whether a recorded call on ``problem`` has the report and the bits of
    w that :func:`numpy_newton` gives from the same start and options."""
    start, options, run, w = call
    mirror_w = start.copy()
    mirror = numpy_newton(problem, mirror_w, **options)
    # repr tells the floats apart by their bits, a NaN included
    return repr(mirror) == repr(run) and mirror_w.tobytes() == w.tobytes()
