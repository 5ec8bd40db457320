"""Shared low-level utilities used across the reproduction.

This package deliberately holds only dependency-free building blocks:
bit/alignment arithmetic (:mod:`repro.util.bitops`), deterministic RNG
substreams (:mod:`repro.util.rng`), address-range containers
(:mod:`repro.util.intervals`), isotonic regression
(:mod:`repro.util.pava`) and plain-text table rendering
(:mod:`repro.util.tables`).
"""

from repro.util.bitops import align_down, align_up, ceil_div, ilog2, is_pow2
from repro.util.intervals import AddressRangeMap, Interval
from repro.util.pava import isotonic_fit, pava
from repro.util.rng import RngStreams
from repro.util.tables import format_table

__all__ = [
    "AddressRangeMap",
    "Interval",
    "RngStreams",
    "align_down",
    "align_up",
    "ceil_div",
    "format_table",
    "ilog2",
    "is_pow2",
    "isotonic_fit",
    "pava",
]
