"""Periodicity classification and file export.

Monodromy phases decide whether a translation closes the immersion; rational
certificates on the eigenvalue ratio and on the full-period phase data decide
cylinder versus torus.  classify_torus and classify_cylinder take lambda;
monodromy_phases, a point evaluator, takes the spectral object
es = eigensystem(c, lambda) and returns the three phases theta_j as an array.  The classic torus here is a1 = 1, psi = 1/sqrt(3)
with lattice 2 pi sqrt(3) Z + 4Ti Z.  The demo classifies a few surfaces and
exports a one-period grid of the torus to CSV and OBJ through the CLI.
"""

import math
import pathlib
import tempfile

from equilag import (
    SurfaceParams,
    classify_cylinder,
    classify_torus,
    derive_constants,
    eigensystem,
    monodromy_phases,
)
from equilag.cli import main

torus = derive_constants(SurfaceParams(1.0, 1.0 / math.sqrt(3.0)))
print("== the torus benchmark a1 = 1, psi = 1/sqrt(3) ==")
v = classify_torus(torus, 1.0)
p_f, omega_f = v.lattice
print(f"  verdict: {v.tag}")
print(f"  p_f     = {p_f.real:.12f}   (2 pi sqrt(3) = {2 * math.pi * math.sqrt(3):.12f})")
print(f"  omega_f = {omega_f}   (4T i = {4 * torus.T}i)")
for name, cert in v.certificates.items():
    print(f"  certificate {name}: {cert.num}/{cert.den}, residual {cert.residual:.1e}")

print("\n== explicit translations ==")
for omega in (2 * math.pi * math.sqrt(3), 4j * torus.T, 1.0, 2j * torus.T):
    verdict = classify_cylinder(torus, 1.0, omega)
    print(f"  omega = {omega}: {verdict.tag}")

print("\n== monodromy phases for omega = p + 2Ti ==")
theta = monodromy_phases(torus, eigensystem(torus, 1.0), 2 * math.pi * math.sqrt(3), 1)
print(f"  theta / pi = {[f'{t / math.pi:.6f}' for t in theta]}")

print("\n== an aperiodic member of the family ==")
none = classify_torus(derive_constants(SurfaceParams(2.0, 1.0)), 1.0)
print(f"  a1 = 2, psi = 1, lambda = 1: {none.tag}")

print("\n== export a one-period torus grid via the CLI ==")
with tempfile.TemporaryDirectory() as tmp:
    tmp = pathlib.Path(tmp)
    config = f"""
[surface]
a1 = 1.0
psi_re = {1.0 / math.sqrt(3.0):.17g}

[grid]
x_min = 0.0
x_max = {p_f.real:.17g}
y_min = 0.0
y_max = {4 * torus.T:.17g}
nx = 24
ny = 24

[output]
format = csv
path = {tmp / 'torus.csv'}
"""
    job = tmp / "torus.ini"
    job.write_text(config)
    rc = main(["sample", "--config", str(job)])
    csv_lines = (tmp / "torus.csv").read_text().splitlines()
    print(f"  sample exit code {rc}; torus.csv has {len(csv_lines) - 1} data rows")
    # same grid again as an OBJ mesh
    job.write_text(config.replace("format = csv", "format = obj").replace("torus.csv", "torus.obj"))
    rc = main(["sample", "--config", str(job)])
    obj_lines = (tmp / "torus.obj").read_text().splitlines()
    nv = sum(1 for line in obj_lines if line.startswith("v "))
    nf = sum(1 for line in obj_lines if line.startswith("f "))
    print(f"  sample exit code {rc}; torus.obj has {nv} vertices and {nf} quad faces")
