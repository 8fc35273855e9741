"""Closed-form indices of the level-raising Dolbeault operator on surfaces.

For a genus-g surface the restriction to the level-l spinor summand is
elliptic and its index, ``index(genus, level, spinor_kind)``, is

    metaplectic spinors: (2l+2)(1-g)
    Fock spinors:        (2l+1)(1-g).

This is a formula layer only: no surface geometry and no block engine.  At
genus zero the metaplectic index is the kernel ledger that ``cp1.verify``
checks per level (ker Dbar = 2l+2, ker D = 0), as criterion 09,
``test_index_matches_kernel_ledger_wherever_certified`` and
``test_cp1_three_ways`` assert.
"""

import operator

SPINOR_KINDS = ("metaplectic", "fock")


def index(genus: int, level: int, spinor_kind: str) -> int:
    """dim ker - dim coker of the raising operator out of level l."""
    g, l = operator.index(genus), operator.index(level)
    if g < 0 or l < 0:
        raise ValueError("genus and level must be nonnegative")
    if spinor_kind not in SPINOR_KINDS:
        raise ValueError(f"spinor_kind must be one of {SPINOR_KINDS}")
    if spinor_kind == "metaplectic":
        return (2 * l + 2) * (1 - g)
    return (2 * l + 1) * (1 - g)
