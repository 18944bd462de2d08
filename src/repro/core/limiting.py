"""The finger limiting function ``g(x)`` of balanced routing (paper Sec. 3.4).

A node ``i`` at clockwise distance ``x`` from the root may only use fingers
at most ``2^{g(x)}`` away, where::

    g(x) = ceil(log2((x + 2*d0) / 3))

and ``d0`` is the mean inter-node gap (``2^b / n``). The derivation solves
for the limit that makes exactly the j-th and (j+1)-th inbound fingers of
every node choose it as parent, yielding branching factor <= 2 on evenly
distributed identifiers.

All arithmetic here is exact (integer/rational): for ``b = 160`` spaces the
quantities overflow doubles, and an off-by-one in ``ceil(log2(.))`` flips a
parent choice and breaks the balance proof.

:func:`finger_limit` is the rational definition and the reference the other
forms are tested against. Every caller evaluates the same rule in its
integer form instead — :class:`FingerLimiter` one distance at a time,
:func:`finger_limits` for a whole array of distances — so the rule exists
once, parameterised by the offset ``c`` of :func:`limit_offset`.

**The integer form.** For an integer ``x >= 0`` and a rational ``d0 > 0``::

    g(x) = ceil_log2(max(ceil((x + c) / 3), 1)),   c = ceil(2*d0)

Proof: ``ceil(log2(v)) == ceil_log2(ceil(v))`` for ``v > 1`` because powers
of two are integers, and both sides clamp to 0 for ``v <= 1``, so
``g(x) = ceil_log2(max(ceil(v), 1))`` with ``v = (x + 2*d0)/3``. By the
nested-ceiling identity ``ceil(y/m) == ceil(ceil(y)/m)`` (real ``y``,
integer ``m > 0``), ``ceil(v) = ceil(ceil(x + 2*d0)/3)``, and
``ceil(x + 2*d0) = x + ceil(2*d0) = x + c`` because ``x`` is an integer.
So ``d0`` enters ``g`` only through the integer ``c``, and
``ceil((x + c)/3) = (x + c + 2) // 3``.

**Float gaps.** The overlay estimates ``d0`` as the float
``fl(2^b / n)``; :func:`exact_gap` turns it into the nearest fraction with
denominator at most ``10^12``. For ``b <= 48`` and ``n <= 10^12`` that
gives the same ``c`` as the exact ``Fraction(2^b, n)``:

* The exact value is itself a candidate of the normaliser (its reduced
  denominator divides ``n``), so the normalised gap is no farther from the
  float than the exact value is: both errors are at most the float's
  rounding error ``2^b/n * 2^-53``, and ``2*d0`` moves by at most
  ``4 * 2^(b-53)/n = 2^(b-51)/n <= 1/(8n)``.
* ``2 * 2^b / n`` is an integer only when ``n`` is a power of two. Then
  ``2^b / n`` is a power of two, the float is exact, and so is the
  normalised gap. Otherwise ``2^(b+1)/n = k + r/n`` with ``0 < r < n``, at
  least ``1/n`` away from every integer — more than the ``1/(8n)`` above,
  so the ceiling ``c`` cannot change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import numpy.typing as npt

from repro.util.bits import ceil_log2

__all__ = [
    "ceil_log2_fraction",
    "exact_gap",
    "finger_limit",
    "finger_limits",
    "limit_offset",
    "FingerLimiter",
]

#: :func:`finger_limits` is exact while ``x + c + 2`` stays below this bound
#: (int64 sums and float64 ``frexp`` of integers are both exact there).
#: Identifier spaces of at most 48 bits keep ``x + c + 2`` below ``2^50``.
_VECTOR_EXACT_LIMIT = 1 << 53


def ceil_log2_fraction(value: Fraction) -> int:
    """Exact ``ceil(log2(value))`` for a positive rational, floored at 0.

    For ``value <= 1`` this returns 0, which in the limiter means "only the
    immediate-successor finger is eligible" — the correct degenerate case
    for nodes adjacent to the root.
    """
    if value <= 0:
        raise ValueError(f"value must be positive, got {value}")
    # For value > 1: ceil(log2(r)) == ceil_log2(ceil(r)) because powers of
    # two are integers; for value <= 1 the integer ceiling is 1 -> 0.
    integer_ceiling = -((-value.numerator) // value.denominator)
    return ceil_log2(max(integer_ceiling, 1))


def exact_gap(d0: float | Fraction) -> Fraction:
    """``d0`` as a positive :class:`~fractions.Fraction`.

    A ``Fraction`` is kept as it is; a float (an overlay estimate such as
    ``space.size / n``) becomes the nearest fraction with denominator at
    most ``10^12``. Raises :class:`ValueError` for ``d0 <= 0``.
    """
    gap = d0 if isinstance(d0, Fraction) else Fraction(d0).limit_denominator(10**12)
    if gap <= 0:
        raise ValueError(f"d0 must be positive, got {d0}")
    return gap


def limit_offset(d0: float | Fraction) -> int:
    """The integer offset ``c = ceil(2*d0)`` of the integer form of ``g``.

    ``g(x) = ceil_log2(max((x + c + 2) // 3, 1))`` for every integer
    ``x >= 0`` (see the module docstring for the proof), so ``c`` is all a
    limiter needs to know about the gap.
    """
    gap = exact_gap(d0)
    return -((-2 * gap.numerator) // gap.denominator)


def finger_limit(x: int, d0: float | Fraction) -> int:
    """``g(x) = ceil(log2((x + 2*d0)/3))``, clamped to ``>= 0``.

    The rational definition, kept as the reference for the integer form.

    Parameters
    ----------
    x:
        Clockwise distance from the node to the root, ``x >= 0``. (``x = 0``
        is the root itself, which has no parent; callers never need the
        value but it is defined for completeness.)
    d0:
        Mean inter-node gap. Accepts an exact :class:`~fractions.Fraction`
        (preferred, e.g. ``Fraction(2**b, n)``) or a float, which is
        converted by :func:`exact_gap`.

    Returns
    -------
    int
        Maximum eligible finger slot index ``j`` (0-indexed, finger ``j``
        covers offset ``2^j``): eligible slots are ``j <= g(x)``.
    """
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    return ceil_log2_fraction((x + 2 * exact_gap(d0)) / 3)


def finger_limits(x: npt.ArrayLike, d0: float | Fraction) -> np.ndarray:
    """``g(x)`` for an array of distances, exactly; int64, aligned with ``x``.

    Evaluates the integer form with one int64 sum and a ``frexp``:
    ``frexp`` splits ``v = m * 2^e`` with ``m`` in ``[0.5, 1)``, exactly for
    integers below ``2^53``, so ``ceil(log2(v))`` is ``e - 1`` when ``v`` is
    a power of two (``m == 0.5``) and ``e`` otherwise. Raises
    :class:`ValueError` for a negative distance or when ``x + c + 2``
    reaches ``2^53``, where that exactness ends.
    """
    distances = np.asarray(x, dtype=np.int64)
    c = limit_offset(d0)
    x_min, x_max = int(distances.min(initial=0)), int(distances.max(initial=0))
    if x_min < 0 or x_max + c + 2 >= _VECTOR_EXACT_LIMIT:
        raise ValueError(f"distances must lie in [0, 2^53 - {c + 2}) for d0 = {d0}")
    q = np.maximum((distances + np.int64(c + 2)) // 3, np.int64(1))
    mantissa, exponent = np.frexp(q.astype(np.float64))
    limits = exponent.astype(np.int64)
    # frexp mantissae are exact binary fractions, so 0.5 is representable
    # and the power-of-two test is safe as an exact comparison.
    limits[mantissa == 0.5] -= 1  # datlint: disable=DAT003
    return limits


@dataclass(frozen=True)
class FingerLimiter:
    """Callable ``g(x)`` with a fixed mean gap, precomputed exactly.

    The constructor accepts the ring parameters directly so experiment code
    does not repeat the ``d0 = 2^b / n`` convention::

        limiter = FingerLimiter.for_ring(bits=32, n_nodes=512)
        limiter(x)   # max eligible finger slot for distance x

    The offset ``c`` of :func:`limit_offset` is computed once at
    construction; each call is then pure integer arithmetic.
    """

    d0: Fraction
    offset: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", limit_offset(self.d0))

    @classmethod
    def for_ring(cls, bits: int, n_nodes: int) -> "FingerLimiter":
        """Limiter with the exact mean gap ``2^bits / n_nodes``."""
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        return cls(d0=Fraction(1 << bits, n_nodes))

    @classmethod
    def for_gap(cls, d0: float | Fraction) -> "FingerLimiter":
        """Limiter with an explicit (possibly estimated) mean gap."""
        return cls(d0=exact_gap(d0))

    def __call__(self, x: int) -> int:
        if x < 0:
            raise ValueError(f"x must be non-negative, got {x}")
        return ceil_log2(max((x + self.offset + 2) // 3, 1))

    def max_finger_offset(self, x: int) -> int:
        """Largest finger offset ``2^{g(x)}`` eligible at distance ``x``."""
        return 1 << self(x)
