"""Fixed reference work, timed beside the CLI operations in its own process.

    python3 perfbench/ref.py

It uses nothing from this repository, so a change to the package leaves
its time alone: what moves it is the host.  Like a CLI operation it
starts an interpreter, imports numpy, and then does exact rational
matrix products and a float loop in pure Python.  run.py
divides the operations' wall times by the reference's, so that a slow
spell of a shared host, which stretches both, cancels.  Exits 1 if the
work gives a wrong answer.
"""

from fractions import Fraction

import numpy  # noqa: F401  (imported for its start-up cost, as the CLI does)

N = 10
ROUNDS = 30


def main() -> int:
    a = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 4) for j in range(N)]
         for i in range(N)]
    m = a
    for _ in range(ROUNDS):
        m = [[sum(m[i][k] * a[k][j] for k in range(N)) for j in range(N)] for i in range(N)]
        m = [[x.limit_denominator(10**40) for x in row] for row in m]
    total = 0.0
    for i in range(1000000):
        total += (i % 7) * 0.5
    trace = sum(m[i][i] for i in range(N))
    return 0 if total == 1499998.5 and trace.denominator > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
