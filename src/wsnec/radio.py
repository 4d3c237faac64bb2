"""First-order per-bit radio energy model.

Transmit cost is electronics plus an amplifier term that switches from the
free-space d^2 law to the multipath d^4 law at the crossover distance d0;
receive cost is electronics only. The relay-distance threshold uses the
single-coefficient amplifier form (eps_amp, path-loss exponent alpha_pl),
kept separate from the two-coefficient fs/mp form: above the threshold,
splitting a link in two saves energy.

This model is per bit and deliberately independent of the per-packet
constituent accounting; it exists as a sanity cross-check on the
simulator's radio charges (bits per packet is scenario config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .energy_core import bound, nonneg


@dataclass(frozen=True)
class RadioModelParams:
    e_t_elec: float = 50e-9     # transmit electronics, J/bit
    e_r_elec: float = 50e-9     # receive electronics, J/bit
    eps_fs: float = 10e-12      # free-space amplifier, J/bit/m^2
    eps_mp: float = 0.0013e-12  # multipath amplifier, J/bit/m^4
    eps_amp: float = 100e-12    # single-coefficient amplifier, J/bit/m^alpha
    alpha_pl: float = 2.0       # path-loss exponent of the single-coefficient form
    d0: float | None = None     # crossover distance; default makes tx continuous

    def __post_init__(self):
        for name in ("e_t_elec", "e_r_elec", "eps_fs", "eps_mp", "eps_amp"):
            v = float(getattr(self, name))
            bound(math.isfinite(v) and v > 0, f"{name} > 0", v)
        bound(math.isfinite(self.alpha_pl) and self.alpha_pl > 1, "alpha_pl > 1", self.alpha_pl)
        if self.d0 is None:
            object.__setattr__(self, "d0", math.sqrt(self.eps_fs / self.eps_mp))
        bound(math.isfinite(self.d0) and self.d0 > 0, "d0 > 0", self.d0)


def tx_energy_per_bit(d: float, params: RadioModelParams) -> float:
    """Transmit energy per bit over distance d (fs below d0, mp at and above)."""
    nonneg("distance", d)
    if d < params.d0:
        return params.e_t_elec + params.eps_fs * d * d
    return params.e_t_elec + params.eps_mp * d ** 4


def rx_energy_per_bit(params: RadioModelParams) -> float:
    """Receive energy per bit; electronics only, independent of distance."""
    return params.e_r_elec


def tx_energy_per_bit_power_law(d: float, params: RadioModelParams) -> float:
    """Transmit energy per bit in the single-coefficient amplifier form."""
    nonneg("distance", d)
    return params.e_t_elec + params.eps_amp * d ** params.alpha_pl


def relay_threshold(params: RadioModelParams) -> float:
    """Distance above which inserting a midpoint relay saves energy.

    ((e_t_elec + e_r_elec) / ((1 - 2^(1-alpha)) * eps_amp)) ^ (1/alpha),
    in the single-coefficient amplifier form.
    """
    scale = 1.0 - 2.0 ** (1.0 - params.alpha_pl)
    bound(scale > 0, "alpha_pl > 1 for a finite threshold", params.alpha_pl)
    return ((params.e_t_elec + params.e_r_elec) / (scale * params.eps_amp)) ** (1.0 / params.alpha_pl)
