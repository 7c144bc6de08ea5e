"""Rotating-frame Hamiltonians and exact unitary evolution.

All Hamiltonians are stored divided by hbar (rad/s).  Propagators are built by eigendecomposition
so they stay unitary to rounding; the resonant schedule, diagonal in m, takes one power of i
per level.
"""

from dataclasses import dataclass

import numpy as np

from .spin_ops import (SpinSystem, angular_momentum, expm_hermitian, require_hermitian,
                       require_integer, require_real)
from .states import coherent_state


@dataclass(frozen=True)
class NmrParams:
    """Rotating-frame parameters: Larmor, carrier and quadrupolar angular frequencies (rad/s).
    The RF field is no parameter: an SMP segment carries its own amplitude and phase."""

    omega_L: float
    omega_RF: float
    omega_Q: float

    def __post_init__(self):
        for name in ("omega_L", "omega_RF", "omega_Q"):
            object.__setattr__(self, name, require_real(getattr(self, name), name))


def nmr_hamiltonian(sys: SpinSystem, params: NmrParams) -> np.ndarray:
    """The RF-free rotating-frame Hamiltonian -(wL-wRF) Iz + (wQ/6)(3 Iz^2 - I^2), diagonal."""
    ops = angular_momentum(sys)
    return (-(params.omega_L - params.omega_RF) * ops.Iz
            + params.omega_Q / 6 * (3 * ops.Iz @ ops.Iz - ops.Isq))


def effective_hamiltonian(sys: SpinSystem, omega_Q: float, p: int) -> np.ndarray:
    """Resonant nonlinear Hamiltonian -(wQ/2)(p Iz - Iz^2 + I^2/3), the
    on-resonance limit of the rotating-frame Hamiltonian with the carrier
    tuned p half-quadrupolar-splittings below the Larmor frequency."""
    p, omega_Q = require_integer(p, "p"), require_real(omega_Q, "omega_Q")
    ops = angular_momentum(sys)
    return -omega_Q / 2 * (p * ops.Iz - ops.Iz @ ops.Iz + ops.Isq / 3)


def atom_field_hamiltonian(sys: SpinSystem, kappa: float, nbar: float) -> np.ndarray:
    """Dispersive atom-field form kappa ((2 nbar + 1) Iz - Iz^2 + I^2)."""
    kappa, nbar = require_real(kappa, "kappa"), require_real(nbar, "nbar", minimum=0)
    ops = angular_momentum(sys)
    return kappa * ((2 * nbar + 1) * ops.Iz - ops.Iz @ ops.Iz + ops.Isq)


def evolve(state_or_rho: np.ndarray, H: np.ndarray, t: float) -> np.ndarray:
    """Apply U = exp(-i H t); U|psi> for vectors, U rho U^dag for matrices."""
    require_hermitian(H, "Hamiltonian")
    U = expm_hermitian(H, t)
    if state_or_rho.ndim == 1:
        return U @ state_or_rho
    return U @ state_or_rho @ U.conj().T


def cat_time(nu_Q: float) -> float:
    """Quarter-period t_S = pi/omega_Q = 1/(2 nu_Q) in seconds."""
    return 1.0 / (2.0 * require_real(nu_Q, "nu_Q", exclusive_minimum=0))


def free_evolution_schedule(sys: SpinSystem, p: int, nu_Q: float, checkpoints,
                            vartheta: float = np.pi / 2, varphi: float = 0.0):
    """Deviation matrices of an initial coherent state after free evolution for the requested
    integer multiples k of t_S under the resonant nonlinear Hamiltonian.  Level m turns through
    (pi/2) k (p m - m^2) plus a global phase that rho_k = psi_k psi_k^dag drops, so level
    j = I - m gains i^(k j (2I - j - p)) relative to m = I: exact powers of i, with k and p
    reduced mod 4 as ints, so the schedule keeps its period 4 in both for any size."""
    cat_time(nu_Q)   # refuses a bad nu_Q; the phases are the same for every nu_Q
    p = require_integer(p, "p")
    ks = np.array([require_integer(k, "checkpoints") % 4 for k in checkpoints], dtype=int)
    j = np.arange(sys.d)
    quarter_turns = np.outer(ks, j * (sys.d - 1 - j - p % 4)) % 4
    psi = np.array([1, 1j, -1, -1j])[quarter_turns] * coherent_state(sys, vartheta, varphi)
    return list(psi[:, :, None] * psi[:, None].conj())
