"""Reference computations made apart from spincat, for the output checks.

Everything here uses numpy and scipy directly and the closed forms of
the method: the spin matrices, the binomial coherent-state amplitudes,
the diagonal effective Hamiltonian, Gauss-Legendre weights on the
sphere and the temporal-average fidelity of a set of pulse sequences.
Basis order is the Dicke basis with m = +I first.
"""

import json
from math import comb

import numpy as np
from scipy.linalg import expm


def m_values(I: float) -> np.ndarray:
    return I - np.arange(round(2 * I) + 1)


def spin_matrices(I: float):
    """(Ix, Iy, Iz) from <m+1|I+|m> = sqrt(I(I+1) - m(m+1))."""
    m = m_values(I)
    Iplus = np.diag(np.sqrt(I * (I + 1) - m[1:] * (m[1:] + 1)), k=1)
    return (Iplus + Iplus.T) / 2, (Iplus - Iplus.T) / 2j, np.diag(m)


def coherent_amplitudes(I: float, vartheta: float, varphi: float) -> np.ndarray:
    """sqrt(C(2I, I+m)) sin(vartheta/2)^(I+m) cos(vartheta/2)^(I-m) e^{-i(I+m)varphi}."""
    twoI = round(2 * I)
    n = np.rint(I + m_values(I)).astype(int)
    s, c = np.sin(vartheta / 2), np.cos(vartheta / 2)
    binom = np.sqrt([float(comb(twoI, k)) for k in n])
    return binom * s ** n * c ** (twoI - n) * np.exp(-1j * n * varphi)


def cat_schedule_target(I, nu_Q, p, k, vartheta, varphi) -> np.ndarray:
    """Density matrix of the coherent state after k cat times t_S = 1/(2 nu_Q)
    under the diagonal effective Hamiltonian
    E_m = -(omega_Q/2)(p m - m^2 + I(I+1)/3)."""
    m = m_values(I)
    omega_Q = 2 * np.pi * nu_Q
    E = -(omega_Q / 2) * (p * m - m ** 2 + I * (I + 1) / 3)
    psi = coherent_amplitudes(I, vartheta, varphi) * np.exp(-1j * E * k / (2 * nu_Q))
    return np.outer(psi, psi.conj())


def sphere_weights(theta: np.ndarray, n_phi: int):
    """Solid-angle quadrature weights for a Gauss-Legendre (in cos theta) by
    uniform (in phi) grid, ordered like ``theta``; None if ``theta`` is not
    the Gauss-Legendre node set."""
    x, w = np.polynomial.legendre.leggauss(len(theta))
    nodes = np.arccos(x)
    order = np.argsort(nodes)
    if np.abs(np.asarray(theta) - nodes[order]).max() > 1e-12:
        return None
    return w[order] * (2 * np.pi / n_phi)


def sphere_integral(theta, values) -> float:
    weights = sphere_weights(theta, values.shape[1])
    if weights is None:
        return float("nan")
    return float((weights[:, None] * values).sum())


def read_rho(path) -> np.ndarray:
    rec = json.loads(path.read_text())
    return np.array(rec["rho_re"]) + 1j * np.array(rec["rho_im"])


def read_wigner_csv(path):
    """(theta, values) of a quasiprobability CSV: one '# I=.. n_theta=..
    n_phi=..' line, a header line, then theta,phi,W rows."""
    with open(path) as f:
        meta = dict(item.split("=") for item in f.readline().lstrip("# ").split())
        f.readline()
        data = np.loadtxt(f, delimiter=",")
    n_theta, n_phi = int(meta["n_theta"]), int(meta["n_phi"])
    return data[::n_phi, 0], data[:, 2].reshape(n_theta, n_phi)


def temporal_average_fidelity(variants, I, omega_Q, target_state) -> float:
    """Normalized overlap of the averaged evolved Iz with the traceless target
    deviation, each segment propagated by scipy's expm under
    (omega_Q/6)(3 Iz^2 - I(I+1)) + omega_1 (Ix cos phase + Iy sin phase)."""
    Ix, Iy, Iz = spin_matrices(I)
    d = len(Iz)
    H_static = omega_Q / 6 * (3 * Iz @ Iz - I * (I + 1) * np.eye(d))
    rho_bar = np.zeros((d, d), dtype=complex)
    for seq in variants:
        U = np.eye(d, dtype=complex)
        for seg in seq.segments:
            H = H_static + seg.omega * (np.cos(seg.phase) * Ix + np.sin(seg.phase) * Iy)
            U = expm(-1j * H * seg.duration) @ U
        rho_bar += U @ Iz @ U.conj().T
    rho_bar /= len(variants)
    P = np.outer(target_state, np.conj(target_state))
    target = P - np.trace(P) / d * np.eye(d)
    return float(np.trace(rho_bar @ target).real
                 / (np.linalg.norm(rho_bar) * np.linalg.norm(target)))
