"""Finite-difference gradient verification.

Central differences (f(p+eps) - f(p-eps)) / 2eps per parameter entry against
the tape gradient, in double precision. Relative error per entry is
|g_ad - g_fd| / max(|g_ad|, |g_fd|, floor).

The floor turns the test absolute once gradients drop below it: the FD value
itself carries ~ulp(f)/2eps of roundoff (about 1e-11 for unit-scale losses at
eps=1e-5), so demanding 1e-4 relative agreement on a 1e-9 gradient would be
asking for accuracy the oracle cannot deliver. Below the floor the criterion
becomes |g_ad - g_fd| < tol * floor, which still sits well above that noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Tensor, first_nonfinite


class EvaluationError(RuntimeError):
    """Objective returned a non-finite value during a check."""


@dataclass
class GradCheckReport:
    tol: float
    per_param: dict = field(default_factory=dict)   # name -> max rel err
    skipped: list = field(default_factory=list)     # frozen names
    max_rel_err: float = 0.0
    worst: tuple = ("", -1, 0.0, 0.0)               # name, flat index, ad, fd

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def format_table(self) -> str:
        lines = [f"{'parameter':40s} {'max rel err':>12s}"]
        for name in sorted(self.per_param):
            lines.append(f"{name:40s} {self.per_param[name]:12.3e}")
        for name in sorted(self.skipped):
            lines.append(f"{name:40s} {'frozen, skipped':>15s}")
        verdict = "PASS" if self.passed else "FAIL"
        wname, widx, ad, fd = self.worst
        lines.append(f"max relative error {self.max_rel_err:.3e} "
                     f"(tol {self.tol:.1e}) -> {verdict}")
        if wname:
            lines.append(f"worst entry: {wname}[{widx}] ad={ad:.6e} fd={fd:.6e}")
        return "\n".join(lines)


def grad_check(f, params, eps: float = 1e-4, tol: float = 1e-4,
               floor: float = 1e-6) -> GradCheckReport:
    """Compare tape gradients of scalar f() against central differences.

    `params` maps names to Tensors; f is a zero-argument callable that reads
    those tensors and returns a scalar Tensor. Frozen entries
    (requires_grad=False) are perturbation targets for f but carry no
    gradient, so they are reported as skipped rather than checked.
    """
    items = list(params.items())
    for name, p in items:
        if p.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 parameters; "
                             f"{name} is {p.dtype}")
        if p.grad is not None:
            p.grad.fill(0)  # in place: it may view an optimizer's flat gradient

    with Tape() as tape:
        y = f()
    if not isinstance(y, Tensor) or y.size != 1:
        raise ValueError("grad_check objective must return a scalar Tensor")
    if not np.isfinite(y.data):
        raise EvaluationError(f"objective is non-finite (first bad op: "
                              f"{first_nonfinite(f)})")
    tape.backward(y)

    report = GradCheckReport(tol=tol)
    for name, p in items:
        if not p.requires_grad:
            report.skipped.append(name)
            continue
        g_ad = np.zeros(p.size) if p.grad is None else p.grad.reshape(-1)
        worst_here = 0.0
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            f_plus = float(f().data)
            flat[i] = keep - eps
            f_minus = float(f().data)
            flat[i] = keep
            g_fd = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(g_ad[i] - g_fd) / max(abs(g_ad[i]), abs(g_fd), floor)
            rel = rel if np.isfinite(rel) else np.inf  # NaN passes any "> tol"
            if rel > worst_here:
                worst_here = rel
            if rel > report.max_rel_err:
                report.max_rel_err = rel
                report.worst = (name, i, float(g_ad[i]), g_fd)
        report.per_param[name] = worst_here
    return report
