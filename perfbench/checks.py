"""Correctness of served plans: bit-identity and optimality certificates.

Every distinct answered size is compared bit for bit with a cold
``partition_bisection``; the sizes marked for it also get
:func:`repro.verify.certificate.check_allocation`.  The checks run in the
benchmark process after the window, once the system under test has
stopped, so the benchmark starts no process of its own that could outlive
the run.
"""

from __future__ import annotations

import numpy as np

from . import inputs


def failures(seed: int, p: int, plans: dict, certify: set) -> list[tuple[int, str]]:
    """``(n, reason)`` for every answer ``plans[n] = (makespan, allocation)``
    that is not bit-identical, or that is in ``certify`` and fails its
    certificate."""
    from repro import Fleet, partition_bisection
    from repro.verify.certificate import check_allocation

    fleet = Fleet(inputs.tiled_fleet(inputs.table2_models(), p, seed))
    sfs = fleet.speed_functions
    bad = []
    for n, (makespan, alloc) in sorted(plans.items()):
        ref = partition_bisection(n, sfs, pack=fleet.pack)
        if not (ref.makespan == makespan and np.array_equal(ref.allocation, alloc)):
            bad.append((n, "differs from cold partition_bisection"))
        elif n in certify:
            report = check_allocation(alloc, sfs, n=n, makespan=makespan)
            if not report.ok:
                bad.append((n, report.summary()))
    return bad
