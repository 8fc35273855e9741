"""The sparse exact matrix product of the Fock operators.

A matrix is a dict of its nonzero entries keyed (row, col), as a Fock
operator holds it; the product keeps no zero.
"""


def _product(a: dict, b: dict) -> dict:
    """The matrix product a b of two entry dicts, with cancelled sums dropped."""
    by_row = {}
    for (k, j), y in b.items():
        by_row.setdefault(k, []).append((j, y))
    out = {}
    for (i, k), x in a.items():
        for j, y in by_row.get(k, ()):
            old = out.get((i, j))
            out[i, j] = x * y if old is None else old + x * y
    return {key: z for key, z in out.items() if z}
