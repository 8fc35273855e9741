import pytest

from oracles import index_by_riemann_roch
from symdol import cp1
from symdol.surface import index


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------

def test_index_examples():
    assert index(2, 0, "metaplectic") == -2
    assert index(0, 1, "fock") == 3
    for l in range(0, 6):
        for kind in ("metaplectic", "fock"):
            assert index(1, l, kind) == 0


@pytest.mark.parametrize("g", range(0, 21))
@pytest.mark.parametrize("l", range(0, 21))
def test_index_grid(g, l):
    for kind in ("metaplectic", "fock"):
        assert index(g, l, kind) == index_by_riemann_roch(g, l, kind)
    # formula identity: metaplectic minus fock indices differ by 1-g
    assert index(g, l, "metaplectic") - index(g, l, "fock") == 1 - g


@pytest.mark.parametrize("args", [(-1, 0, "fock"), (0, -1, "metaplectic"), (0, 0, "spin")])
def test_index_validates(args):
    message = "nonnegative" if min(args[:2]) < 0 else "spinor_kind"
    with pytest.raises(ValueError, match=message):
        index(*args)
    with pytest.raises(ValueError, match=message):
        index(genus=args[0], level=args[1], spinor_kind=args[2])


def test_index_query_validation():
    # genus and level are ints first, then nonnegative, then the kind is known
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        index(1.5, -1, "spin")
    with pytest.raises(ValueError, match="nonnegative"):
        index(-1, 0, "spin")
    with pytest.raises(ValueError, match="spinor_kind"):
        index(0, 0, "spin")


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
        assert index(0, level, "metaplectic") == ker_dbar - ker_d_next
        assert cp1.verify(level, gamma_max)[level].ker_dbar == ker_dbar
