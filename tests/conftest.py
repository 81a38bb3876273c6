"""Shared random-element generators (all seeded) and a Fraction reference
product for the test suite."""

from fractions import Fraction

from hypothesis import Phase, settings

from skewrec import LeftPoly, OctonionAlgebra, QuaternionAlgebra

# tests/mutants.py runs its tests with --hypothesis-profile=mutants: a
# mutant is killed by the first failing example, so it skips the shrink and
# explain phases, which ran for minutes under a broken product
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))


def rand_frac(rng, num=9, den=3):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_scalar(rng, ctx, num=9, den=3):
    if ctx.d is None:
        return ctx.scalar(rand_frac(rng, num, den))
    return ctx.element((rand_frac(rng, num, den), rand_frac(rng, num, den)))


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


def fraction_mul(carrier, x, y):
    """x * y for lists of Fraction coordinates of a carrier, from its
    parameters alone: d for Q(sqrt(d)), the products of (a,b | Q) with
    e1^2 = a, e2^2 = b and e3 = e1*e2 = -e2*e1, and (q + r*l)(s + t*l) =
    q*s + gamma*conj(t)*r + (t*q + r*conj(s))*l for the octonion double with
    parameter gamma."""
    if isinstance(carrier, OctonionAlgebra):
        def mul(u, v):
            return fraction_mul(carrier.base, u, v)

        def conj(v):
            return [v[0]] + [-c for c in v[1:]]

        g = carrier.gamma.coords()[0]
        q, r, s, t = x[:4], x[4:], y[:4], y[4:]
        return ([a + g * b for a, b in zip(mul(q, s), mul(conj(t), r))]
                + [a + b for a, b in zip(mul(t, q), mul(r, conj(s)))])
    if isinstance(carrier, QuaternionAlgebra):
        a, b = carrier.a.coords()[0], carrier.b.coords()[0]
        w1, x1, y1, z1 = x
        w2, x2, y2, z2 = y
        return [w1 * w2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
                w1 * x2 + x1 * w2 - b * y1 * z2 + b * z1 * y2,
                w1 * y2 + y1 * w2 + a * x1 * z2 - a * z1 * x2,
                w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2]
    if carrier.d is None:
        return [x[0] * y[0]]
    return [x[0] * y[0] + carrier.d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]]
