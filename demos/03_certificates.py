"""
Certificates and counterexamples
================================

For ASMs A <= B the difference of matrix-entry monomials x^A - x^B is
nonnegative on every totally nonnegative (TNN) matrix.  The package
proves each instance constructively: it factors the difference along a
saturated chain into terms (Laurent monomial) * (2x2 solid minor) /
(monomial), each visibly nonnegative on TNN input.  When A and B are
incomparable, it instead builds an explicit TNN matrix on which the
difference is negative.
"""

from fractions import Fraction

from asmgraph import (
    Asm,
    ComparableError,
    IncomparableError,
    asm_monomial,
    combined_form,
    counterexample_matrix,
    evaluate_certificate,
    evaluate_difference,
    parse_permutation,
    permutation_to_asm,
    random_tnn,
    sfl_certificate,
    verify_certificate,
)

# A comparable pair: the identity below the reverse permutation.
a = permutation_to_asm(parse_permutation("123"))
b = permutation_to_asm(parse_permutation("321"))
cert = sfl_certificate(a, b)
print(f"x^A - x^B in {len(cert.steps)} subtraction-free steps:")
for step in cert.steps:
    print("  ", step.prefix, "*", step.minor, "/", f"({step.divisor})")
report = verify_certificate(cert, samples=3, seed=11)
print(f"verified exactly by its chain, spot-checked at {report.samples} points")
print()

# The certificate telescopes: evaluated at any matrix with nonzero
# divisor entries it equals the direct difference of the two monomials.
m = random_tnn(3, seed=5)
direct = asm_monomial(a).evaluate(m.rows) - asm_monomial(b).evaluate(m.rows)
assert evaluate_certificate(cert, m.rows) == direct
print(f"at a random TNN matrix the difference is {direct} (nonnegative)")
print()

# A proper ASM pair, with -1 entries on both sides.  The combined form
# pulls out one global Laurent monomial so each summand is a monomial
# with nonnegative exponents times a 2x2 minor.
lower = Asm((
    (0, 1, 0, 0, 0),
    (1, -1, 1, 0, 0),
    (0, 1, -1, 0, 1),
    (0, 0, 0, 1, 0),
    (0, 0, 1, 0, 0),
))
upper = Asm((
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (1, -1, 0, 0, 1),
    (0, 1, -1, 1, 0),
    (0, 0, 1, 0, 0),
))
form = combined_form(sfl_certificate(lower, upper))
print("combined form, one prefix times a sum of monomial * minor:")
print("  prefix:", form.laurent_prefix)
for mono, minor in form.terms:
    print("  term:  ", mono, "*", minor)
print()

# An incomparable pair: neither of 231, 312 lies below the other, and a
# two-block TNN matrix separates them.
c = permutation_to_asm(parse_permutation("231"))
d = permutation_to_asm(parse_permutation("312"))
try:
    sfl_certificate(c, d)
except IncomparableError as exc:
    print(f"no certificate: {exc}")
witness_matrix, cell = counterexample_matrix(c, d)
value = evaluate_difference(c, d, witness_matrix)
print(f"counterexample (witness cell {cell}, difference {value}):")
print(witness_matrix)

# The reverse direction fails the same way, so the pair is genuinely
# incomparable rather than reversed.
try:
    counterexample_matrix(c, c)
except ComparableError as exc:
    print(f"equal pair has no counterexample: {exc}")
assert value < Fraction(0)
