"""Closed-form indices of the level-raising Dolbeault operator on surfaces.

For a genus-g surface the restriction to the level-l spinor summand is
elliptic and its index is

    metaplectic spinors: (2l+2)(1-g)
    Fock spinors:        (2l+1)(1-g).

This is a formula layer only: no surface geometry is represented.  At genus
zero the formulas are cross-checked against the exact kernel ledger of the
CP^1 block engine.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Optional

from . import cp1

SPINOR_KINDS = ("metaplectic", "fock")


class _IndexQueryFields(NamedTuple):
    genus: int
    level: int
    spinor_kind: str


class IndexQuery(_IndexQueryFields):
    __slots__ = ()

    def __new__(cls, genus: int, level: int, spinor_kind: str):
        genus, level = operator.index(genus), operator.index(level)
        if genus < 0 or level < 0:
            raise ValueError("genus and level must be nonnegative")
        if spinor_kind not in SPINOR_KINDS:
            raise ValueError(f"spinor_kind must be one of {SPINOR_KINDS}")
        return super().__new__(cls, genus, level, spinor_kind)

    @classmethod
    def _make(cls, iterable):    # so that _replace validates too
        return cls(*iterable)


def index(query: IndexQuery) -> int:
    """dim ker - dim coker of the raising operator out of level l."""
    g, l = query.genus, query.level
    if query.spinor_kind == "metaplectic":
        return (2 * l + 2) * (1 - g)
    return (2 * l + 1) * (1 - g)


class ConsistencyReport(NamedTuple):
    level: int
    gamma_max: int
    index_value: int
    ker_dbar: Optional[int]
    ker_d_next: Optional[int]
    certified: bool     # truncation large enough to exhibit both kernels
    consistent: Optional[bool]

    @property
    def verdict(self) -> str:
        if not self.certified:
            return "inconclusive (gamma_max too small to certify kernels)"
        return "consistent" if self.consistent else "INCONSISTENT"


def cp1_consistency(level: int, gamma_max: int) -> ConsistencyReport:
    """Check (2l+2) = dim ker Dbar|_{E_l} - dim ker D|_{E_{l+1}} at genus 0.

    Certification needs every block through gamma = 2l+3, so the level-l
    kernel block and the first level-(l+1) block are both inspected; smaller
    truncations are reported as inconclusive, never asserted.  An even
    gamma_max is a ValueError at any size, and so is one below 1.
    """
    level, gamma_max = operator.index(level), cp1._require_gamma_max(gamma_max)
    value = index(IndexQuery(genus=0, level=level, spinor_kind="metaplectic"))
    if gamma_max < 2 * level + 3:
        return ConsistencyReport(level, gamma_max, value, None, None, False, None)
    levels = cp1.verify(level + 1, gamma_max)
    ker_dbar, ker_d_next = levels[level].ker_dbar, levels[level + 1].ker_d
    return ConsistencyReport(
        level,
        gamma_max,
        value,
        ker_dbar,
        ker_d_next,
        True,
        ker_dbar - ker_d_next == value,
    )
