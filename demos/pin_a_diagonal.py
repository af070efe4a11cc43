"""Rotate a finite spectrum until the matrix shows a prescribed diagonal."""

from fractions import Fraction as F

import numpy as np

from carpenter.schurhorn import finite_projection, majorizes, schur_horn_unitary

np.set_printoptions(precision=4, suppress=True)

lam = [F(1), F(1), F(0), F(0)]
target = [F(3, 4), F(3, 4), F(1, 4), F(1, 4)]
assert majorizes(target, lam)

u = schur_horn_unitary(lam, target)
d = np.diag(u.T @ np.diag([float(x) for x in lam]) @ u)
print("spectrum      :", [str(x) for x in lam])
print("target diag   :", [str(x) for x in target])
print("achieved diag :", d)
assert np.allclose(d, [0.75, 0.75, 0.25, 0.25], atol=1e-12)

# same thing packaged as a projection
rep = finite_projection(target)
print("projection diag:", [round(x, 12) for x in rep.diag(4)])
p = rep.dense(4)
assert np.allclose(p @ p, p, atol=1e-12)
assert np.allclose(p, p.T, atol=1e-12)
print("P^2 = P = P^T holds")

# a messier target, still majorized, still exact
lam2 = [F(1, 4), F(1, 2), F(1), F(1, 4)]
t2 = [F(95, 128), F(7, 16), F(73, 128), F(1, 4)]
u2 = schur_horn_unitary(lam2, t2)
d2 = np.diag(u2.T @ np.diag([float(x) for x in lam2]) @ u2)
print("\nunsorted inputs:", [str(x) for x in t2], "->", d2)
assert max(abs(d2[i] - float(t2[i])) for i in range(4)) < 1e-12
