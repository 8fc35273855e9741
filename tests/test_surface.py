import pytest

from symdol import cp1
from symdol.surface import IndexQuery, index


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------

def test_index_examples():
    assert index(IndexQuery(genus=2, level=0, spinor_kind="metaplectic")) == -2
    assert index(IndexQuery(genus=0, level=1, spinor_kind="fock")) == 3
    for l in range(0, 6):
        for kind in ("metaplectic", "fock"):
            assert index(IndexQuery(genus=1, level=l, spinor_kind=kind)) == 0


@pytest.mark.parametrize("g", range(0, 6))
@pytest.mark.parametrize("l", range(0, 6))
def test_index_grid(g, l):
    assert index(IndexQuery(g, l, "metaplectic")) == (2 * l + 2) * (1 - g)
    assert index(IndexQuery(g, l, "fock")) == (2 * l + 1) * (1 - g)
    # formula identity: metaplectic minus fock indices differ by 1-g
    assert (
        index(IndexQuery(g, l, "metaplectic")) - index(IndexQuery(g, l, "fock"))
        == 1 - g
    )


def test_index_query_validation():
    with pytest.raises(ValueError, match="spinor_kind"):
        IndexQuery(0, 0, "spin")
    with pytest.raises(ValueError, match="nonnegative"):
        IndexQuery(-1, 0, "fock")


# ---------------------------------------------------------------------------
# genus zero: the index is the kernel ledger of the CP^1 block engine
# ---------------------------------------------------------------------------

def test_index_matches_kernel_ledger_wherever_certified():
    # gamma_max = 2l+3 is the least truncation that holds the level-l kernel
    # block and the first level-(l+1) block
    for level in range(0, 4):
        gamma_max = 2 * level + 3
        levels = cp1.verify(level + 1, gamma_max)
        assert all(lv.ok for lv in levels), level
        ker_dbar, ker_d_next = levels[level].ker_dbar, levels[level + 1].ker_d
        assert (ker_dbar, ker_d_next) == (2 * level + 2, 0)
        assert index(IndexQuery(0, level, "metaplectic")) == ker_dbar - ker_d_next
        assert cp1.verify(level, gamma_max)[level].ker_dbar == ker_dbar
