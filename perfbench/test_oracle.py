"""Tests of the ground-truth oracle on hand-built circuits.

Run with ``python3 -m pytest perfbench/test_oracle.py -q`` (or directly with
``python3 perfbench/test_oracle.py``).  The circuits are written out as MNA
matrices by hand, so the test depends on nothing but numpy/scipy.
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402


def rc_circuit(conductance: float):
    """Port node 1 -- R = 1 -- node 2; C = 1 from node 2 to ground; a shunt
    ``conductance`` at node 1.  Impedance form: input port current, output
    port voltage.  Node 1 carries no capacitor, so ``E`` is singular."""
    e = np.diag([0.0, 1.0])
    g = np.array([[1.0 + conductance, -1.0], [-1.0, 1.0]])
    b = np.array([[1.0], [0.0]])
    return e, -g, b, b.T.copy(), np.zeros((1, 1))


def test_rc_circuit_is_certified_passive():
    e, a, b, c, d = rc_circuit(0.5)
    assert oracle.certified_passive(e, a, b, c, d)
    assert oracle.witness(e, a, b, c, d) is None


def test_rc_pole_is_stable():
    # Z(s) = (1 + s) / (g + s (1 + g)): one finite pole at -g / (1 + g).
    e, a, b, c, d = rc_circuit(0.5)
    poles = oracle.finite_poles(e, a)
    assert poles.shape == (1,)
    assert np.isclose(poles[0].real, -1.0 / 3.0)


def test_negative_resistor_gives_frequency_witness():
    # Z(s) = (1 + s) / (g + s (1 + g)); g = -2 puts the pole at -2 (stable)
    # while Re Z(jw) = -(2 + w^2) / (4 + w^2) < 0 at every frequency.
    e, a, b, c, d = rc_circuit(-2.0)
    assert not oracle.certified_passive(e, a, b, c, d)
    assert np.isclose(oracle.spectral_abscissa(e, a), -2.0)
    truth = oracle.witness(e, a, b, c, d)
    assert truth is not None and truth.verdict == oracle.NOT_PASSIVE
    assert truth.margin < -1.0


def test_series_negative_resistor_is_caught():
    # Port node 1 -- L = 1 -- ground, in series with a negative feedthrough
    # of -0.5: Z(s) = s - 0.5, whose real part is -0.5 at every frequency.
    e = np.array([[0.0, 0.0], [0.0, 1.0]])
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    b = np.array([[1.0], [0.0]])
    d = np.array([[-0.5]])
    truth = oracle.witness(e, a, b, b.T.copy(), d)
    assert truth is not None and truth.verdict == oracle.NOT_PASSIVE
    assert np.isclose(truth.margin, -1.0)


def test_unstable_pole_is_a_witness():
    # g = -0.5 puts the pole of Z(s) = (1 + s) / (-0.5 + 0.5 s) at +1.
    e, a, b, c, d = rc_circuit(-0.5)
    truth = oracle.witness(e, a, b, c, d)
    assert truth is not None and truth.verdict == oracle.NOT_PASSIVE
    assert "unstable" in truth.reason


def test_margin_argument_accepts_small_perturbation_only():
    e, a, b, c, d = rc_circuit(0.5)
    nominal, _ = oracle.scan(e, a, b, c, d)
    perturbed = a * (1.0 + 1e-4)
    assert oracle.margin_argument(e, perturbed, b, c, d, nominal) is not None
    # A perturbation that moves the margin by more than a tenth is refused.
    assert oracle.margin_argument(e, a * 1.5, b, c, d, nominal) is None


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok  {name}")
