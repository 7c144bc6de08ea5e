"""The tests' independent model of a pulse sequence: one expm_hermitian call per segment.

spincat.smp keeps one forward model, the batched eigenbasis propagators of its objective
(`objective_for_test`).  This chain builds each segment's Hamiltonian, the RF-free
`nmr_hamiltonian` plus the segment's own RF term, and exponentiates it on its own, so the
objective and the optimizer's output can be checked against it.
"""

import numpy as np

from spincat.dynamics import NmrParams, nmr_hamiltonian
from spincat.smp import PulseSegment, PulseSequence
from spincat.spin_ops import SpinSystem, angular_momentum, expm_hermitian


def segment_hamiltonian(sys: SpinSystem, seg: PulseSegment, nmr: NmrParams) -> np.ndarray:
    """The RF-free Hamiltonian plus the segment's RF term w (Ix cos phi + Iy sin phi)."""
    ops = angular_momentum(sys)
    return nmr_hamiltonian(sys, nmr) + seg.omega * (ops.Ix * np.cos(seg.phase)
                                                     + ops.Iy * np.sin(seg.phase))


def sequence_propagator(sys: SpinSystem, seq: PulseSequence, nmr: NmrParams) -> np.ndarray:
    U = np.eye(sys.d, dtype=complex)
    for seg in seq.segments:
        U = expm_hermitian(segment_hamiltonian(sys, seg, nmr), seg.duration) @ U
    return U


def simulate_sequence(sys: SpinSystem, rho0: np.ndarray, seq: PulseSequence,
                      nmr: NmrParams) -> np.ndarray:
    U = sequence_propagator(sys, seq, nmr)
    return U @ rho0 @ U.conj().T


def temporal_average(sys: SpinSystem, variants, rho0: np.ndarray,
                     nmr: NmrParams) -> np.ndarray:
    """Arithmetic mean of the deviation matrix evolved under each variant."""
    if not variants:
        raise ValueError("need at least one pulse sequence")
    if rho0.shape != (sys.d, sys.d):
        raise ValueError("deviation matrix dimension mismatch")
    acc = np.zeros((sys.d, sys.d), dtype=complex)
    for seq in variants:
        acc += simulate_sequence(sys, rho0, seq, nmr)
    return acc / len(variants)
