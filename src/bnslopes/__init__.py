"""Exact computation of divisor-class pushforwards and slopes on moduli
of curves, backed by a self-verifying Schubert-calculus engine.

The package computes, entirely in exact rational arithmetic:

* intersection numbers on Grassmannians (Pieri multiplication, the
  closed form for integrals of powers of the special cycle, and a
  brute-force oracle for it);
* the pushforwards of the tautological classes a, b, c from the moduli
  of linear series with vanishing Brill-Noether number to the pointed
  moduli of stable curves;
* the Gieseker-Petri, hypersurface and syzygy divisor families, their
  slopes, and the closed-form slope polynomials that cross-check them;
* a reconstruction of the pushforward formulas from special one-
  parameter test families, as an independent end-to-end verification.

Each name is imported from the module that defines it.
"""
