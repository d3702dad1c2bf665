"""Reference checker: recompute printed values in arbitrary precision.

Runs after the timed passes, on the stdout of the first pass. Each check
parses a printed value, recomputes it with mpmath at 60 significant digits
from the printed inputs, and flags it when the relative error exceeds the
stated tolerance:

* ``PLOB``: -log1p(-eta) / ln 2 with eta = exp(-L / 22 km). The log1p form
  matters: even at 50 digits, 1 - exp(-L/22) rounds to 1 from ~3003 km.
* ``E_AB``: (1 - (1 - 2 e)**n_qr) / 2 from the printed E_segment and n_qr
  (E_segment clipped at 1/2, as the tree rows do before chaining).
* ``mc-validate`` analytic column: the lattice sums, segment variances and
  majority votes behind each quantity, recomputed from the quantity's label.
  These are printed to 7 significant digits, so they are checked to half a
  unit in the last printed place.

Values printed with 17 significant digits round-trip exactly, so they are
checked to REL_TOL.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from mpmath import mp, mpf

#: Relative tolerance for values printed with 17 significant digits.
REL_TOL = 1e-9

#: Fiber attenuation length of every benchmark command (the CLI default).
LATT_KM = 22.0

mp.dps = 60

SQRT_PI = mp.sqrt(mp.pi)


@dataclass
class Mismatch:
    kind: str
    where: str
    printed: float
    exact: float
    rel_err: float


@dataclass
class RefCheck:
    """Counts of checked values and the ones off their reference."""

    checked: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    def compare(self, kind: str, where: str, printed: float, exact, tol: float = REL_TOL) -> None:
        self.checked += 1
        if exact == 0:
            rel = 0.0 if printed == 0.0 else math.inf
        else:
            rel = float(abs(mpf(printed) - exact) / abs(exact))
        if rel > tol:
            self.mismatches.append(Mismatch(kind, where, printed, float(exact), rel))

    def compare_printed(self, kind: str, where: str, printed: float, exact, digits: int) -> None:
        """Compare a value printed with ``digits`` significant digits."""
        if printed == 0.0:
            self.compare(kind, where, printed, exact)
            return
        ulp_share = 0.5 * 10.0 ** (1 - digits) * 10.0 ** math.floor(math.log10(abs(printed)))
        self.compare(kind, where, printed, exact, tol=ulp_share / abs(printed) * (1 + 1e-6))

    def summary(self) -> dict:
        by_kind: dict[str, dict] = {}
        for m in self.mismatches:
            entry = by_kind.setdefault(m.kind, {"mismatched": 0, "worst": None})
            entry["mismatched"] += 1
            if entry["worst"] is None or m.rel_err > entry["worst"]["rel_err"]:
                entry["worst"] = vars(m)
        return {
            "rel_tol": REL_TOL,
            "checked": self.checked,
            "mismatched": len(self.mismatches),
            "by_kind": by_kind,
        }


def plob_exact(l_km: float):
    eta = mp.exp(-mpf(l_km) / mpf(LATT_KM))
    return -mp.log1p(-eta) / mp.log(2)


def chain_exact(e_segment: float, n_qr: int):
    e = min(mpf(e_segment), mpf(1) / 2)
    return (1 - (1 - 2 * e) ** n_qr) / 2


def check_plob(ref: RefCheck, where: str, l_km: float, printed: float) -> None:
    ref.compare("PLOB", where, printed, plob_exact(l_km))


def check_e_ab(ref: RefCheck, where: str, e_segment: float, n_qr: int, printed: float) -> None:
    ref.compare("E_AB", where, printed, chain_exact(e_segment, n_qr))


def check_sweep_rows(ref: RefCheck, label: str, rows: list[dict]) -> None:
    for row in rows:
        where = f"{label}: {row['protocol']} n_qr={row['n_qr']} L={row['L_AB_km']}"
        check_plob(ref, where, float(row["L_AB_km"]), float(row["PLOB"]))
        check_e_ab(ref, where, float(row["E_segment"]), int(row["n_qr"]), float(row["E_AB"]))


# -- mc-validate analytic column ---------------------------------------------

_SIGMA2_15DB = mpf(10) ** (-mpf(15) / 10) / 2

#: Channel-noise variance per variant, from the protocols module's table.
_SEGMENT_NOISE = {
    "one-way-post": lambda eta, root: (1 - eta) / eta,
    "one-way-pre": lambda eta, root: 1 - eta,
    "two-way-post": lambda eta, root: 2 * (1 - root) / root,
    "two-way-pre": lambda eta, root: 2 - 2 * root,
    "two-way-cc": lambda eta, root: (1 - root) / root,
    "two-way-post-2sqec": lambda eta, root: (1 - root) / root,
    "two-way-pre-2sqec": lambda eta, root: 1 - root,
}

#: The margins mc-validate uses, by their printed forms.
_DELTAS = {"0": mpf(0), "sqrt_pi/10": SQRT_PI / 10, "sqrt_pi/6": SQRT_PI / 6}


def _lattice_mass(sigma2, delta, odd: bool):
    half_width = SQRT_PI / 2 - delta
    scale = mp.sqrt(2 * sigma2)
    kmax = int(mp.ceil(12 * mp.sqrt(sigma2) / SQRT_PI)) + 3
    total = mpf(0)
    for k in range(-kmax, kmax + 1):
        center = (2 * k + (1 if odd else 0)) * SQRT_PI
        total += (mp.erf((center + half_width) / scale) - mp.erf((center - half_width) / scale)) / 2
    return total


def e_hrm_exact(sigma2, delta):
    p_cor = _lattice_mass(sigma2, delta, odd=False)
    p_in = _lattice_mass(sigma2, delta, odd=True)
    return min(mpf(1) / 2, p_in / (p_cor + p_in))


def p_suc_exact(sigma2, delta):
    if delta == 0:
        return mpf(1)
    return _lattice_mass(sigma2, delta, odd=False) + _lattice_mass(sigma2, delta, odd=True)


def _majority3(e):
    return 3 * e * e * (1 - e) + e**3


def _match_delta(printed: str):
    value = float(printed)
    for exact in _DELTAS.values():
        if abs(value - float(exact)) < 1e-6:
            return exact
    return None


def mc_validate_exact(quantity: str):
    """Exact analytic value of one mc-validate quantity, or None if unchecked."""
    m = re.fullmatch(r"hrm\.(e_hrm|p_suc)\[s2=([\d.]+),delta=([\d.]+)\]", quantity)
    if m:
        delta = _match_delta(m.group(3))
        if delta is None:
            return None
        fn = e_hrm_exact if m.group(1) == "e_hrm" else p_suc_exact
        return fn(mpf(m.group(2)), delta)
    m = re.fullmatch(r"segment\.flip\[([a-z0-9-]+),l0=([\d.]+),delta=([a-z_/0-9]+)\]", quantity)
    if m and m.group(1) in _SEGMENT_NOISE and m.group(3) in _DELTAS:
        eta = mp.exp(-mpf(m.group(2)) / mpf(LATT_KM))
        v = 2 * _SIGMA2_15DB + _SEGMENT_NOISE[m.group(1)](eta, mp.sqrt(eta))
        e = e_hrm_exact(v, _DELTAS[m.group(3)])
        return min(mpf(1) / 2, 2 * e * (1 - e)) if m.group(1).endswith("2sqec") else e
    m = re.fullmatch(r"tree\.majority3\[e=([\d.]+)\]", quantity)
    if m:
        return _majority3(mpf(m.group(1)))
    m = re.fullmatch(r"tree\.encoded_x\[e=([\d.]+)\]", quantity)
    if m:
        return 1 - (1 - _majority3(mpf(m.group(1)))) ** 3
    m = re.fullmatch(r"tree\.bell_pair_error\[s2=([\d.]+)\]", quantity)
    if m:
        return 1 - (1 - e_hrm_exact(mpf(m.group(1)), mpf(0))) ** 2
    return None


def check_mc_validate(ref: RefCheck, rows: list[dict]) -> None:
    for row in rows:
        exact = mc_validate_exact(row["quantity"])
        if exact is not None:
            ref.compare_printed("mc-validate.analytic", row["quantity"], row["analytic"], exact, digits=7)
