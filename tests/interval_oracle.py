"""Interval proofs at n = 1, by branch and bound in mpmath's ``iv``
arithmetic; independent of the package's engine.

At n = 1 a step is a scalar inequality in d = (log a - log b)/2 and the
parameters, and |y| only scales it.  eq1.2 (Heinz <= Heron) at a b = 1
has the raw margin |y| ((1 - alpha) + alpha cosh d - cosh(u d)), u =
2 nu - 1.  Heron's side does not decrease in alpha, so alpha = 1/2 is
the worst case of the window, where the margin is |y| d^2 f(u, d) with

    f(u, d) = S(d/2)^2 / 4 - (u^2 / 2) S(u d / 2)^2,  S(x) = sinh(x)/x.

S is even and increases in |x|, so on a box |u| <= u1, d0 <= d <= d1
the first term is least at d0 and the second greatest at u1 d1.
"""

from dataclasses import dataclass

import mpmath
from mpmath import iv


def eq12_f(u, d):
    """f(u, d) at 50 digits, the margin over |y| d^2 (d != 0)."""
    with mpmath.workdps(50):
        u, d = mpmath.mpf(u), mpmath.mpf(d)

        def s(x):
            return mpmath.sinh(x) / x if x else mpmath.mpf(1)

        return s(d / 2) ** 2 / 4 - u ** 2 / 2 * s(u * d / 2) ** 2


def _sinch_at(t):
    """An interval holding S(t) at the point t >= 0.  Below 1 it is
    [1, cosh t], which avoids the cancellation in sinh(t)/t; ``iv`` has
    exp but no sinh or cosh."""
    t = iv.mpf(t)
    e = iv.exp(t)
    if t.b < 1:
        return iv.mpf([1, ((e + 1 / e) / 2).b])
    return (e - 1 / e) / (2 * t)


def eq12_box_bound(u1, d0, d1):
    """An interval holding a lower bound of f over the box |u| <= u1,
    d0 <= d <= d1, with 0 <= d0: positive where its lower end is."""
    u1 = iv.mpf(u1)
    least = iv.mpf(_sinch_at(iv.mpf(d0) / 2).a)
    most = iv.mpf(_sinch_at((u1 * d1 / 2).b).b)
    return least ** 2 / 4 - u1 ** 2 / 2 * most ** 2


@dataclass
class Proof:
    """What bisection of [0, d_max] found: ``holds`` when every box's
    bound is positive, else the first ``box`` narrower than the minimum
    width that it could not certify."""
    holds: bool
    d_max: float
    boxes: int  # boxes visited
    leaves: int  # boxes certified
    box: tuple = None

    @property
    def label(self):
        if self.holds:
            return f"n = 1, |d| ≤ {self.d_max:g} (interval proof)"
        return None


def prove_eq12(u1, d_max=40.0, min_width=1e-6) -> Proof:
    """Bisect d on [0, d_max], left half first, until every box's bound
    is positive (eq1.2 holds at n = 1 for |u| <= u1, |d| <= d_max, every
    alpha >= 1/2) or a box of width min_width is not."""
    stack, boxes, leaves = [(0.0, float(d_max))], 0, 0
    while stack:
        d0, d1 = stack.pop()
        boxes += 1
        if eq12_box_bound(u1, d0, d1).a > 0:
            leaves += 1
        elif d1 - d0 <= min_width:
            return Proof(False, d_max, boxes, leaves, (d0, d1))
        else:
            mid = (d0 + d1) / 2
            stack += [(mid, d1), (d0, mid)]
    return Proof(True, d_max, boxes, leaves)
