"""Desk-scale quantum circuit laboratory.

Three table-top experiments on at most six qubits: an EPR parity check
with Heisenberg-picture information-flow tracking, a quantum Szilard
engine with an erasure ledger, and Deutsch-style closed-loop circuits
solved by a consistency fixed point.
"""

from . import circuit, ctc, descriptor, epr, errors, qmath, szilard

__all__ = [
    "circuit",
    "cli",
    "ctc",
    "descriptor",
    "epr",
    "errors",
    "qmath",
    "szilard",
]

__version__ = "0.1.0"
