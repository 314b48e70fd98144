"""The divisibility identities, checked exactly on concrete instances.

For graphs whose rows toward the last three vertices share a ratio constant
c, the flow count factors:  K_G(a) = (S/c + a_{n-1} + 1) * K_{G-(n-1,n)}(a)
with S the sum of the early supplies (type A), and S replaced by S - 2y on
type C.  The multiplier need not be an integer; all verdicts are
cross-multiplied so the arithmetic stays integral.
"""

from kpflows import (
    Theorem,
    build_graph,
    bv_hypothesis,
    complete_type_a,
    generate_bv_family,
    report_json_dict,
    verify_identity_a,
    verify_identity_c,
)

k4 = complete_type_a(4)
cond = bv_hypothesis(k4, Theorem.TYPE_A)
print("K4 hypothesis satisfied:", cond.satisfied, "with c =", cond.c)

rep = verify_identity_a(k4, (3, 1, 0, -4))
print(
    f"K4 at (3,1,0,-4):  {rep.lhs_count} = {rep.multiplier} * {rep.rhs_count}"
    f"  -> verdict {rep.verdict}"
)

# The ratio constant is "unconstrained" on three vertices; the multiplier
# degenerates to a_1 + 1.
g3 = build_graph(3, "A", [(1, 2, "-", 1), (1, 3, "-", 1), (2, 3, "-", 1)])
rep = verify_identity_a(g3, (2, 3, -5))
print(
    f"triangle at (2,3,-5): {rep.lhs_count} = {rep.multiplier} * {rep.rhs_count}"
    f"  (c unconstrained)"
)

# Type C: the multiplier can be a genuine fraction while the identity holds.
gc = build_graph(
    4,
    "C",
    [
        (1, 1, "+", 1),
        (1, 2, "-", 1),
        (1, 3, "-", 1),
        (1, 4, "-", 1),
        (2, 3, "-", 1),
        (2, 4, "-", 1),
        (3, 4, "-", 1),
    ],
)
rep = verify_identity_c(gc, (4, 0, 0, -2), Theorem.TYPE_C_NEGATIVE)
print(
    f"\ntype C graph at (4,0,0,-2): y = {rep.y}, multiplier = {rep.multiplier}"
    f"\n  {rep.lhs_count} = {rep.multiplier} * {rep.rhs_count} -> verdict {rep.verdict}"
)

# Mixed signs: positive edges may reach the last three vertices if both
# signs share the ratio constant.
gm = build_graph(
    4,
    "C",
    [(i, j, s, m) for i, j, s, m in gc.edges]
    + [(1, 2, "+", 1), (1, 3, "+", 1), (1, 4, "+", 1)],
)
rep = verify_identity_c(gm, (2, 2, 2, -4), Theorem.TYPE_C_MIXED)
print(
    f"mixed-sign graph at (2,2,2,-4): {rep.lhs_count} = {rep.multiplier} *"
    f" {rep.rhs_count} -> verdict {rep.verdict}"
)

# Skips are reported, not raised: parity failures, hypothesis violations,
# and the mixed variant's netflow bound all end up in the report.
rep = verify_identity_c(gc, (4, 0, 0, -1), Theorem.TYPE_C_NEGATIVE)
print("\nodd coordinate sum:", rep.skipped, "-", rep.reason)

# A small random campaign over generated hypothesis-satisfying instances.
print("\ncampaign over generated instances:")
import random

rng = random.Random(1)
violations = 0
checked = 0
for seed in range(12):
    g = generate_bv_family(4, Theorem.TYPE_A, 2, seed)
    for _ in range(3):
        head = [rng.randint(0, 4) for _ in range(3)]
        a = tuple(head) + (-sum(head),)
        rep = verify_identity_a(g, a)
        if not rep.skipped:
            checked += 1
            violations += 0 if rep.verdict else 1
print(f"  {checked} checks, {violations} violations")
print("\nfull machine-readable report:")
print(report_json_dict(verify_identity_a(k4, (3, 1, 0, -4))))
