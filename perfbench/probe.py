"""Host-speed probe: a fresh interpreter doing fixed work that runs no symdol code.

    python perfbench/probe.py

It starts the interpreter, imports what a symdol process imports from the
standard library and the environment (numpy), and runs a fixed loop of
exact Fraction arithmetic, dict and tuple work.  Its wall time moves only
with the speed of the machine, so run.py uses it to express query times in
reference seconds.
"""

import argparse  # noqa: F401  (import cost is part of the probe)
import json  # noqa: F401
from fractions import Fraction

import numpy  # noqa: F401

STEPS = 6_000


def work() -> Fraction:
    table: dict[tuple[int, int], Fraction] = {}
    acc = Fraction(0)
    for i in range(1, STEPS):
        key = (i % 31, i % 37)
        value = table.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 11 + 1)
        table[key] = value
        acc += value
    return acc


if __name__ == "__main__":
    work()
