"""Prime context: the prime, the ambient absolute precision, and the
exponential domain bound e0.

e0 is the integral exponent of the exp/log isomorphism
exp : p^e0 Z_p <-> 1 + p^e0 Z_p, so e0 = 1 for p > 2 and e0 = 2 for p = 2.
"""

from dataclasses import dataclass

from .errors import PadicError

MIN_PRECISION = 8

#: default number of digits dropped by test tolerances ("to precision N - slack")
DEFAULT_SLACK = 4


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeContext:
    """Shared read-only arithmetic context. Values are immutable; a context
    can safely be shared across threads."""

    p: int
    default_precision: int = 32

    def __post_init__(self):
        if not is_prime(self.p):
            raise PadicError("p = %d is not prime" % self.p)
        if self.default_precision < MIN_PRECISION:
            raise PadicError(
                "precision %d below the minimum %d; series truncation bounds "
                "need headroom" % (self.default_precision, MIN_PRECISION)
            )
        # the value the dataclass would compute, kept: contexts key caches
        object.__setattr__(self, "_hash", hash((self.p, self.default_precision)))

    def __hash__(self):
        return self._hash

    @property
    def exp_domain_exponent(self) -> int:
        return 1 if self.p > 2 else 2

    @property
    def e0(self) -> int:
        return self.exp_domain_exponent

    def widen(self, extra: int) -> "PrimeContext":
        """Internal working context with extra digits of headroom."""
        return PrimeContext(self.p, self.default_precision + max(0, extra))

    def __repr__(self):
        return "PrimeContext(p=%d, N=%d)" % (self.p, self.default_precision)
