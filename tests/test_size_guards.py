"""Every size guard raises the same package error.

Each guarded entry point, called one past its default limit, raises a
SizeLimitExceededError that is an AsmError (so ``except AsmError``
catches it) and a ValueError, and carries the size and the limit.
"""

import pytest

from asmgraph import (
    ASM_SIZE_LIMIT,
    PERMUTATION_SIZE_LIMIT,
    AsmError,
    SizeLimitExceededError,
    bq_definition,
    bq_qdet,
    build_graph,
    count_asms,
    enumerate_asms,
    enumerate_permutations,
    identity_asm,
    iter_asms,
    unsigned_permanent_q,
)
from asmgraph.lattice import BETA_CHECKED_SIZE_LIMIT, beta_checked
from asmgraph.polynomials import QDET_SIZE_LIMIT

GUARDED = {
    "count_asms": (ASM_SIZE_LIMIT, count_asms),
    "iter_asms": (ASM_SIZE_LIMIT, lambda n: next(iter_asms(n))),
    "iter_asms at the call": (ASM_SIZE_LIMIT, iter_asms),
    "enumerate_asms": (ASM_SIZE_LIMIT, enumerate_asms),
    "enumerate_permutations": (PERMUTATION_SIZE_LIMIT, enumerate_permutations),
    "build_graph": (ASM_SIZE_LIMIT, build_graph),
    "bq_definition": (PERMUTATION_SIZE_LIMIT, bq_definition),
    "unsigned_permanent_q": (PERMUTATION_SIZE_LIMIT, unsigned_permanent_q),
    "bq_qdet": (QDET_SIZE_LIMIT, bq_qdet),
    "beta_checked": (BETA_CHECKED_SIZE_LIMIT, lambda n: beta_checked(identity_asm(n))),
}


@pytest.mark.parametrize("name", GUARDED)
def test_guard_raises_the_package_error(name):
    limit, call = GUARDED[name]
    with pytest.raises(SizeLimitExceededError) as exc:
        call(limit + 1)
    assert isinstance(exc.value, AsmError)
    assert isinstance(exc.value, ValueError)
    assert (exc.value.n, exc.value.limit) == (limit + 1, limit)
