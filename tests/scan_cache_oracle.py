"""Check a complete scan cache against sympy.factor_list and numpy.roots,
cell by cell.

    trinotool scan --n-max 48 --a -4,-3,-2,2,3,4 --threads 2 --cache scan.jsonl
    python tests/scan_cache_oracle.py scan.jsonl 48 -4,-3,-2,2,3,4

Every cell x^n + a x^m + b of the grid (3 <= n <= N_MAX, 0 < m < n with
gcd(m, n) = 1, a in A_VALUES, b = +/-1) must have one record in the cache,
with no error, whose ``reducible`` and ``factor_degrees`` (with multiplicity)
are those of sympy's factorization, and whose ``measure`` and ``house`` agree
to a relative RTOL with prod max(1, |z|) and max |z| over the eigenvalues of
the companion matrix (numpy.roots).  Exits 1 on the first missing, errored or
differing cell.  pytest does not collect this file.  sympy takes about 25 ms
per cell of the n <= 48 grid (sympy 1.14, one core of a 2-vCPU machine);
numpy.roots adds about 0.4 ms.
"""

import json
import sys
from math import gcd

import numpy as np
import sympy

from trinotool.scan import record_from_dict

RTOL = 1e-9


def companion_values(n: int, m: int, a: int, b: int) -> tuple[float, float]:
    """Measure and house of x^n + a x^m + b from numpy.roots."""
    coeffs = np.zeros(n + 1)
    coeffs[[0, n - m, n]] = 1, a, b
    moduli = np.abs(np.roots(coeffs))
    return float(np.prod(np.maximum(moduli, 1.0))), float(moduli.max())


def main(cache: str, n_max: int, a_values: list[int]) -> int:
    with open(cache) as fh:
        records = {r.key: r for r in map(record_from_dict, map(json.loads, fh))}
    x = sympy.Symbol("x")
    cells = [(n, m, a, b) for n in range(3, n_max + 1) for m in range(1, n)
             if gcd(m, n) == 1 for a in a_values for b in (-1, 1)]
    hits = 0
    for n, m, a, b in cells:
        rec = records.get((n, m, a, b))
        if rec is None or rec.error is not None:
            print(f"cell {(n, m, a, b)}: {'missing' if rec is None else rec.error}")
            return 1
        _, factors = sympy.factor_list(x**n + a * x**m + b, x)
        degrees = tuple(sorted(sympy.degree(g, x) for g, k in factors for _ in range(k)))
        if (rec.reducible, rec.factor_degrees) != (len(degrees) > 1, degrees):
            print(f"cell {(n, m, a, b)}: scan {rec.reducible} {rec.factor_degrees}, "
                  f"sympy {degrees}")
            return 1
        measure, house = companion_values(n, m, a, b)
        if not (abs(rec.measure - measure) <= RTOL * measure
                and abs(rec.house - house) <= RTOL * house):
            print(f"cell {(n, m, a, b)}: scan measure {rec.measure!r} house {rec.house!r}, "
                  f"numpy.roots {measure!r} {house!r}")
            return 1
        hits += rec.reducible
    print(f"{len(cells)} cells agree with sympy.factor_list and numpy.roots, "
          f"{hits} reducible")
    return 0


if __name__ == "__main__":
    cache, n_max, a_values = sys.argv[1:]
    sys.exit(main(cache, int(n_max), [int(a) for a in a_values.split(",")]))
