"""Split a convergent-defect diagonal into three independent blocks.

The target has two entries at or below one half and everything else climbing
to one.  Shaving three entries to adjusted values makes one block carry whole
mass, one carry mass exactly one, and one carry co-mass exactly one; a single
3x3 rotation then restores the shaved entries in place.
"""

from fractions import Fraction

import numpy as np

from carpenter.seqcore import DiagonalSpec, TailRule
from carpenter.summable import decouple, summable_construct2

spec = DiagonalSpec.of("3/10", "1/5", tail=TailRule.one_minus_geometric("1/4", "1/2"))
print("diagonal:", [str(spec.entry(i)) for i in range(1, 7)], "...")

plan = decouple(spec)
print("chosen indices i1..i5:", (plan.i1, plan.i2, plan.i3, plan.i4, plan.i5))
print("adjusted entries     :", str(plan.a1_tilde), str(plan.a2_tilde), str(plan.b_tilde))
doc = plan.to_json_dict()  # the groups are held as lowest-terms (p, q) pairs
print("block 1 (whole mass) :", doc["group1"], "fed by", plan.group1_src)
print("block 2 (mass one)   :", doc["group2"], "fed by", plan.group2_src)
print("block 3 co-diagonal  :", plan.group3_comp.to_json_dict())

assert sum(Fraction(p, q) for p, q in plan.group1).denominator == 1
assert sum(Fraction(p, q) for p, q in plan.group2) == 1
assert plan.group3_comp.total() == 1

rep = summable_construct2(spec)
got = rep.diag(6)
print("\nassembled diagonal   :", [round(x, 10) for x in got])
want = [float(spec.entry(i)) for i in range(1, 7)]
assert np.allclose(got, want, atol=1e-9)

g = rep.gram()
assert np.abs(g - np.eye(len(g))).max() < 1e-9
print("frame of", len(g), "vectors is orthonormal; diagonal matches everywhere")
