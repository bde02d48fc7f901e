#!/usr/bin/env python3
"""Self-test of the benchmark's checks.  Run from the root of a checkout:

    python3 perfbench/selftest.py

The oracle must reproduce hand values, every generated shape must carry its
own gcd chain, genuine program outputs must pass, and corrupted outputs must
be reported as failed ops.  Exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import run


def main() -> None:
    run.load_program()
    import oracle
    import workloads
    from workloads import Op

    # hand values: 51 image classes at p = 5, n = 6 for (4;6,7); the cusp at p = 7
    assert oracle.par_coeff((4, 6, 7), (1, 2, 4), 5, 6) == 51
    assert [oracle.par_coeff((2, 3), (1, 2), 7, n) for n in range(6)] == [1, 1, 4, 43, 298, 2080]
    assert [oracle.pgeom_coeff(2, 7, n) for n in range(5)] == [1, 1, 7, 43, 301]
    assert oracle.igusa_coeff((1,), 5, 0) == Fraction(4, 5)
    for beta, e, N in workloads.SHAPES.values():
        assert oracle.gcd_chain(beta) == (e, N), beta

    # the QE reader accepts the program's output grammar and rejects quantifiers
    f = oracle.parse_qf("x >= -2 & x == 0 mod 3 | !(x + 2*y < 4)")
    assert oracle.holds(f, {"x": 3, "y": 9}, 0) and not oracle.holds(f, {"x": 1, "y": 0}, 0)
    try:
        oracle.parse_qf("E y. x = 2*y")
    except oracle.NotQuantifierFree:
        pass
    else:
        raise AssertionError("a quantified formula was read as quantifier-free")

    rng = random.Random(0)
    std4 = workloads.make_branch(rng, "4;6,7")
    count = workloads._count_op(std4, 5, 1, 6, window=True)
    assert count.run() == 51
    bad_count = Op(count.kind, lambda: count.run() + 1, count.check)

    cusp = workloads.make_branch(rng, "2;3")
    cross = workloads._cross_op(cusp, "x^2 - y^3", 7, 5)
    verdict = cross.run()
    assert [int(r.counted) for r in verdict.rows] == [1, 1, 4, 43, 298, 2080]

    def corrupted():
        v = cross.run()
        rows = list(v.rows)
        rows[4] = dataclasses.replace(rows[4], counted=rows[4].counted + 1, counted_alt=rows[4].counted_alt + 1)
        return dataclasses.replace(v, rows=tuple(rows))

    bad_cross = Op(cross.kind, corrupted, cross.check, cross.key)

    runner = run.Runner([count, cross, bad_count, bad_cross])
    runner.round()
    assert (runner.attempted, runner.failed, runner.mismatched) == (4, 2, 2), vars(runner)
    print("selftest: ok")


if __name__ == "__main__":
    main()
