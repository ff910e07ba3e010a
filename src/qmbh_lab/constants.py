"""Physical constants (CGS-Gaussian), built-in particles, and closed-form ratio checks.

Everything here is fixed-point arithmetic on a pinned constants table:
lengths in cm, masses in g, charges in esu, energies in erg. The table is
never recomputed at runtime.
"""

import math
from collections import namedtuple


def require(name, value, lo=0.0):
    """`value` if lo < value < inf, else a ValueError that names it: the one
    range check of the library's entry points. It is written as
    `not lo < value < inf`, so that a nan fails it."""
    if not lo < value < math.inf:
        above = "" if lo == -math.inf else f" and > {lo:g}"
        raise ValueError(f"{name} must be finite{above}, got {value!r}")
    return value


class Constants(namedtuple("Constants", "hbar c G e esu_ref",
                           defaults=(1.054571817e-27, 2.99792458e10, 6.67430e-8,
                                     4.80320471e-10, 1.0))):
    """Pinned CGS-Gaussian constants table (CODATA 2018 values): hbar in
    erg s, c in cm/s (exact), G in cm^3 g^-1 s^-2, the elementary charge e in
    esu and the reference charge esu_ref = e' = 1 esu."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            require(name, value)
        return self


CGS = Constants()


class ParticleSpec(namedtuple("ParticleSpec", "name mass charge spin")):
    """Named particle; the anchor for every derived scale. Mass in g, finite
    and > 0 (every scale derived here divides by it), charge in esu (signed),
    spin a multiple of hbar: 0, 1/2, 1, ..."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require("mass", self.mass)
        if self.spin < 0 or round(2 * self.spin) != 2 * self.spin:
            raise ValueError("spin must be a non-negative multiple of 1/2")
        return self

    @classmethod
    def _make(cls, iterable):
        # so that `_replace` checks its values as the constructor does
        return cls(*iterable)


# Built-in catalog. Masses CODATA 2018; charm taken at 1.8 GeV/c^2 with
# charge +2e/3 (1 GeV/c^2 = 1.78266192e-24 g).
BUILTIN_PARTICLES = {
    "electron": ParticleSpec("electron", 9.1093837015e-28, -4.80320471e-10, 0.5),
    "proton": ParticleSpec("proton", 1.67262192369e-24, 4.80320471e-10, 0.5),
    "muon": ParticleSpec("muon", 1.883531627e-25, -4.80320471e-10, 0.5),
    "charm": ParticleSpec("charm", 1.8 * 1.78266192e-24, 2 * 4.80320471e-10 / 3, 0.5),
}


class RatioCheck(namedtuple("RatioCheck",
                            "id computed reference tolerance_kind tolerance note",
                            defaults=("",))):
    """A computed-vs-reference comparison with a declared tolerance.

    tolerance_kind is either "relative" (tolerance = epsilon) or
    "order_of_magnitude" (tolerance = decades of |log10(computed/reference)|).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.tolerance_kind not in ("relative", "order_of_magnitude"):
            raise ValueError(f"unknown tolerance kind {self.tolerance_kind!r}")
        return self

    @property
    def passed(self):
        if self.tolerance_kind == "relative":
            return abs(self.computed - self.reference) <= self.tolerance * abs(self.reference)
        if self.computed <= 0 or self.reference <= 0:
            return False
        return abs(math.log10(self.computed / self.reference)) <= self.tolerance

    @classmethod
    def relative(cls, id, computed, reference, epsilon, note=""):
        return cls(id, float(computed), float(reference), "relative", float(epsilon), note=note)

    @classmethod
    def order_of_magnitude(cls, id, computed, reference, decades, note=""):
        return cls(id, float(computed), float(reference), "order_of_magnitude",
                   float(decades), note=note)

    @classmethod
    def upper_bound(cls, id, value, bound, note=""):
        # Encodes 0 <= value <= bound as |value - bound/2| <= 1.0 * (bound/2),
        # staying within the two declared tolerance kinds.
        return cls(id, float(value), float(bound) / 2.0, "relative", 1.0, note=note)

    @classmethod
    def interval(cls, id, value, lo, hi, note=""):
        # lo <= value <= hi as a relative check about the midpoint.
        if not lo < hi:
            raise ValueError("need lo < hi")
        mid = 0.5 * (lo + hi)
        if mid == 0.0:
            raise ValueError("interval midpoint must be nonzero for a relative check")
        return cls(id, float(value), mid, "relative", (hi - lo) / (2 * abs(mid)), note=note)

    def to_dict(self):
        return {
            "id": self.id,
            "computed": self.computed,
            "reference": self.reference,
            "tolerance_kind": self.tolerance_kind,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["id"], d["computed"], d["reference"], d["tolerance_kind"],
                   d["tolerance"], note=d.get("note", ""))


def compton_wavelength(p):
    """Reduced Compton wavelength hbar/(m c), cm."""
    return CGS.hbar / (p.mass * CGS.c)


def half_compton_wavelength(p):
    """hbar/(2 m c): the vortex/shell radius used throughout, cm."""
    return 0.5 * compton_wavelength(p)


def classical_radius(p):
    """Classical charge radius e^2/(m c^2), cm."""
    if p.charge == 0:
        raise ValueError(f"{p.name}: classical radius undefined for zero charge")
    return p.charge**2 / (p.mass * CGS.c**2)


def coupling_identities(p):
    """hbar*c/e^2, the rounded-length variant, and the e*Phi = m*c^2 shell
    identity.
    """
    if p.charge == 0:
        raise ValueError(f"{p.name}: coupling checks undefined for zero charge")
    direct = CGS.hbar * CGS.c / p.charge**2
    # Historical rounded lengths: hbar/mc ~ 3.8e-11 cm, e^2/mc^2 ~ 2.8e-13 cm.
    rounded = 3.8e-11 / 2.8e-13
    a = classical_radius(p)
    phi = abs(p.charge) / a
    e_phi_over_rest = abs(p.charge) * phi / (p.mass * CGS.c**2)
    return [
        RatioCheck.relative("hbar-c-over-e2", direct, 137.04, 0.5 / 137.04),
        RatioCheck.relative("hbar-c-over-e2-rounded", rounded, 135.7, 0.5 / 135.7),
        RatioCheck.relative("e-phi-equals-rest-energy", e_phi_over_rest, 1.0, 1e-12),
    ]


def gravity_em_ratio(p):
    """e^2/(G m^2) against the heuristic 1e40, within 3 decades."""
    if p.charge == 0:
        raise ValueError(f"{p.name}: ratio undefined for zero charge")
    computed = p.charge**2 / (CGS.G * p.mass**2)
    return RatioCheck.order_of_magnitude("charge-to-gravity-ratio", computed, 1e40, 3.0)


def monopole_strength(n):
    """Pole strength mu = n hbar c / (2 e), esu-equivalent."""
    if require("n", n) != int(n):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return 0.5 * n * CGS.hbar * CGS.c / CGS.e


def extreme_scales(p):
    """Shortest time and length scales and the Compton momentum: a dict with
    t = hbar/(m c^2), x = c t and momentum = m c."""
    t = CGS.hbar / (p.mass * CGS.c**2)
    return {"t": t, "x": CGS.c * t, "momentum": p.mass * CGS.c}
