"""The `algebra` suite: the MV-algebra laws of the chain and of pointwise operations."""

from __future__ import annotations

import random

from .core import Chain, FuzzySet
from .generators import random_carrier, random_fuzzy_set


def _scalar_law_failure(ch: Chain, a: int, b: int, c: int) -> str | None:
    if ch.add(a, ch.add(b, c)) != ch.add(ch.add(a, b), c):
        return "truncated sum is not associative"
    if ch.add(a, b) != ch.add(b, a):
        return "truncated sum is not commutative"
    if ch.add(a, 0) != a:
        return "0 is not a unit for the truncated sum"
    if ch.neg(ch.neg(a)) != a:
        return "complement is not involutive"
    if ch.add(ch.neg(ch.add(ch.neg(a), b)), b) != ch.add(ch.neg(ch.add(ch.neg(b), a)), a):
        return "characteristic identity fails"
    if ch.mul(a, ch.add(b, c)) > ch.add(b, ch.mul(a, c)):
        return "exchange inequality fails"
    return None


def _pointwise_law_failure(alpha: FuzzySet, beta: FuzzySet) -> str | None:
    n = alpha.chain.n
    if alpha.oplus(beta) != beta.oplus(alpha):
        return "pointwise sum is not commutative"
    if alpha.complement().complement() != alpha:
        return "pointwise complement is not involutive"
    lhs = alpha.complement().oplus(beta).complement().oplus(beta)
    rhs = beta.complement().oplus(alpha).complement().oplus(alpha)
    if lhs != rhs:
        return "pointwise characteristic identity fails"
    saturated = alpha.scaled(n)
    if alpha.scaled(n + 3) != saturated:
        return "scalar multiples do not stabilize"
    crisp_support = FuzzySet(
        alpha.carrier, alpha.chain, tuple(n if v > 0 else 0 for v in alpha.values)
    )
    if saturated != crisp_support:
        return "saturated multiple is not the crisp support"
    return None


def case_algebra(rng: random.Random) -> str | None:
    n = rng.randint(1, 8)
    ch = Chain(n)
    a, b, c = (rng.randint(0, n) for _ in range(3))
    failure = _scalar_law_failure(ch, a, b, c)
    if failure:
        return f"{failure} at n={n}, a={a}, b={b}, c={c}"

    carrier = random_carrier(rng, 3)
    alpha = random_fuzzy_set(rng, carrier, ch)
    beta = random_fuzzy_set(rng, carrier, ch)
    failure = _pointwise_law_failure(alpha, beta)
    if failure:
        return f"{failure} at n={n}, alpha={alpha.values}, beta={beta.values}"
    return None
