"""Test-side oracles shared by several test modules."""

import numpy as np

from berezin_lab.spectra import riesz_mean


def riesz_integral_check(spec, sigma, lam):
    """Relative gap between the Riesz mean and its counting-function integral.

    The counting function n(tau) is a step function, so the Aronszajn-style
    integral sigma * int_0^lam (lam - tau)^(sigma-1) n(tau) dtau evaluates in
    closed form, from the spectrum's eigenvalues and multiplicities alone;
    agreement with riesz_mean checks enumeration, counting and summation
    end to end.
    """
    ev = np.asarray(spec.eigenvalues)
    i = int(np.searchsorted(ev, lam, side="left"))
    direct = float(riesz_mean(spec, sigma, lam))
    if i == 0:
        return abs(direct)
    breaks = ev[:i]
    counts = np.cumsum(np.asarray(spec.multiplicities)[:i]).astype(float)
    uppers = np.append(breaks[1:], lam)
    integral = float(np.sum(counts * ((lam - breaks) ** sigma - (lam - uppers) ** sigma)))
    return abs(integral - direct) / max(abs(direct), abs(integral))
