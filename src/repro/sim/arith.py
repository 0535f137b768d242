"""Float reductions that round the same on every supported interpreter.

Built-in :func:`sum` adds floats with compensated (Neumaier) summation
from CPython 3.12 on, and plainly before that, so one sum of the same
floats can differ by an ulp between interpreters. A simulated metric
that is summed must read the same on 3.10 through 3.13, so those sums
use :func:`left_sum`.
"""

from __future__ import annotations

from typing import Iterable, Union

Number = Union[int, float]


def left_sum(values: Iterable[Number]) -> Number:
    """``((0 + v0) + v1) + ...``: a plain left fold from the int ``0``.

    The result is what ``sum(values)`` gives on CPython 3.11 and older:
    ``0`` for no values, and every float add rounded on its own.
    """
    total: Number = 0
    for value in values:
        total += value
    return total
