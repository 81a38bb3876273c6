"""Shared random-element generators for the test suite (all seeded)."""

from fractions import Fraction

from skewrec import LeftPoly


def rand_frac(rng, num=9, den=3):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_scalar(rng, ctx, num=9, den=3):
    if ctx.d is None:
        return ctx.scalar(rand_frac(rng, num, den))
    from skewrec import ScalarValue
    return ScalarValue(ctx, rand_frac(rng, num, den), rand_frac(rng, num, den))


def rand_quat(rng, alg, num=9, den=3):
    return alg.element([rand_frac(rng, num, den) for _ in range(4)])


def rand_quat_common_den(rng, alg, num=9, maxden=2):
    """Coordinates over one shared denominator, so that the trace and norm
    of the value stay small."""
    den = rng.randint(1, maxden)
    return alg.element([Fraction(rng.randint(-num, num), den) for _ in range(4)])


def rand_invertible_quat(rng, alg, num=9, den=3):
    while True:
        q = rand_quat(rng, alg, num, den)
        if not q.norm().is_zero():
            return q


def rand_oct(rng, alg, num=4, den=2):
    return alg.element([rand_frac(rng, num, den) for _ in range(8)])


def adjoin_root(p, lam):
    """Extend p on the left so that lam becomes a root: for f = (x-mu)*p,
    f(lam) = p(lam)*lam - mu*p(lam), so mu = p(lam)*lam*p(lam)^-1."""
    v = p.eval(lam)
    if v.is_zero():
        return LeftPoly.x_minus(lam) * p
    mu = (v * lam) * v.inverse()
    return LeftPoly.x_minus(mu) * p
