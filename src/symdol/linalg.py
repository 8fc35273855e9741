"""Sparse exact linear algebra over the Gaussian rationals.

A matrix stores only its nonzero entries, keyed (row, col), next to an
explicit shape, so that zero-row / zero-column maps (which arise at
truncation and vacuum boundaries) compose correctly.  It is the matrix type
of the Fock operators; there is no floating point anywhere in this module.
"""

from collections.abc import Mapping

from .gaussian import GaussianRational, gq_str


class Mat(Mapping):
    """An nrows x ncols matrix given by its nonzero entries, keyed (row, col).

    No zero is stored, so two matrices are equal exactly when their shapes
    and entries are.  Read-only and unhashable; the entries are read through
    the Mapping interface (``m.get((i, j), ZERO)``, ``m.items()``, ``len(m)``).
    """

    __slots__ = ("nrows", "ncols", "entries")
    nrows: int
    ncols: int
    entries: Mapping[tuple[int, int], GaussianRational]

    def __init__(self, nrows: int, ncols: int,
                 entries: Mapping[tuple[int, int], GaussianRational]):
        for (i, j), value in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i}, {j}) outside a {nrows}x{ncols} matrix")
            if not value:
                raise ValueError(f"zero stored at ({i}, {j})")
        setattr_ = object.__setattr__
        setattr_(self, "nrows", nrows)
        setattr_(self, "ncols", ncols)
        setattr_(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Mat")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Mat")

    def __reduce__(self):
        return Mat, (self.nrows, self.ncols, self.entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nrows, self.ncols, self.entries) == (other.nrows, other.ncols, other.entries)

    def __repr__(self) -> str:
        return f"Mat(nrows={self.nrows!r}, ncols={self.ncols!r}, entries={self.entries!r})"

    def __getitem__(self, key: tuple[int, int]) -> GaussianRational:
        return self.entries[key]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "Mat") -> "Mat":
        """Matrix product self @ other; inner dimension 0 yields the zero map."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch in mat_mul: {self.nrows}x{self.ncols} "
                             f"@ {other.nrows}x{other.ncols}")
        by_row: dict[int, list[tuple[int, GaussianRational]]] = {}
        for (k, j), b in other.entries.items():
            by_row.setdefault(k, []).append((j, b))
        out: dict[tuple[int, int], GaussianRational] = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                old = out.get((i, j))
                out[i, j] = a * b if old is None else old + a * b
        return Mat(self.nrows, other.ncols, {key: x for key, x in out.items() if x})

    def triplets(self) -> list[list]:
        """The entries as [row, col, "a+bi"], sorted by (row, col)."""
        return [[i, j, gq_str(x)] for (i, j), x in sorted(self.entries.items())]

