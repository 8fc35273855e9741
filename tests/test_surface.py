import pytest

from symdol import cp1
from symdol.surface import (
    IndexQuery,
    cp1_consistency,
    index,
)


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
# genus-zero cross-check against the block engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("level", range(0, 4))
def test_cp1_consistency(level):
    report = cp1_consistency(level, 2 * level + 5)
    assert report.certified
    assert report.consistent
    assert report.index_value == 2 * level + 2
    assert report.ker_dbar == 2 * level + 2
    assert report.ker_d_next == 0
    assert report.verdict == "consistent"


def test_cp1_consistency_specific_levels():
    r0 = cp1_consistency(0, 7)
    assert (r0.index_value, r0.ker_dbar, r0.ker_d_next) == (2, 2, 0)
    r3 = cp1_consistency(3, 11)
    assert (r3.index_value, r3.ker_dbar, r3.ker_d_next) == (8, 8, 0)


def test_cp1_consistency_rejects_even_gamma_max_below_threshold():
    # the parity check does not wait for the certification threshold
    with pytest.raises(ValueError, match="wrong parity"):
        cp1_consistency(0, 2)


def test_cp1_consistency_rejects_gamma_max_below_one():
    # below the first block is an error, not an inconclusive report
    with pytest.raises(ValueError, match="gamma_max = -1 is below the first block"):
        cp1_consistency(0, -1)
    with pytest.raises(TypeError):
        cp1_consistency(0, 5.0)


def test_cp1_consistency_stores_int_level():
    report = cp1_consistency(True, 5)
    assert type(report.level) is int and report.level == 1


def test_cp1_consistency_truncation_guard():
    report = cp1_consistency(0, 1)
    assert not report.certified
    assert report.consistent is None
    assert "inconclusive" in report.verdict


def test_index_matches_kernel_ledger_wherever_certified():
    for level in range(0, 4):
        gamma_max = 2 * level + 3
        report = cp1_consistency(level, gamma_max)
        assert report.certified and report.consistent
        ker_dbar = cp1.verify(level, gamma_max)[level].ker_dbar
        assert report.ker_dbar == ker_dbar
        assert index(IndexQuery(0, level, "metaplectic")) == ker_dbar
