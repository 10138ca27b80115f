"""
Alternating sign matrices and their corner sums
===============================================

An alternating sign matrix (ASM) has entries in {-1, 0, 1}; along every
row and column the nonzero entries alternate in sign and sum to 1.
Permutation matrices are exactly the ASMs without a -1.  This script
builds a few, shows what validation catches, and introduces the corner
sum transform that the rest of the package is built on.
"""

import sys

from asmgraph import (
    Asm,
    PrefixSumViolationError,
    corner_sum,
    count_asms,
    format_asm_text,
    from_corner_sum,
    parse_permutation,
    permutation_to_asm,
)

# The smallest ASM that is not a permutation matrix: a single -1 in the
# middle, fenced in by four 1s.
x = Asm(((0, 1, 0), (1, -1, 1), (0, 1, 0)))
print("the 3x3 diamond:")
print(format_asm_text(x))

# The Asm constructor checks the axioms, scanning row by row, so no
# invalid matrix can exist as an Asm.  A matrix whose column prefix sums
# leave {0, 1} is rejected with the exact cell.
try:
    Asm(((1, 0), (1, 0)))
except PrefixSumViolationError as exc:
    print(f"rejected: {exc} (axis={exc.axis}, cell={exc.position})")
else:
    sys.exit("Asm accepted a matrix with a column prefix sum of 2")
print()

# The corner sum matrix records, for each (i, j), the total of the
# top-left i x j submatrix.  It determines the ASM and vice versa.
c = corner_sum(x)
print("corner sums of the diamond:")
for row in c.entries:
    print(" ", " ".join(str(v) for v in row))
assert from_corner_sum(c) == x
print()

# Permutations embed as ASMs; a one-line word is enough to name one.
w = parse_permutation("3142")
print("3142 as a matrix:")
print(format_asm_text(permutation_to_asm(w)))

# The counting sequence 1, 2, 7, 42, 429, ... grows fast; enumeration
# is guarded by a size limit so a typo cannot wedge a session.
print("ASM counts:", [count_asms(n) for n in range(1, 6)])
