"""The three benchmark workloads.

Each workload builds its inputs from the seed alone, exposes one pass as a
list of items, runs one item through the program's public functions and
checks the outputs.  An item is one boundary search, one verify point or
one growth run.

* ``boundary-search``: the analytic route does all the work (recursion,
  closed-form polynomials, eigen/rank fallback, worst-case scan, bisection)
  and the simulator none.
* ``verify-sweep``: the empirical route does nearly all the work, on small
  grids where per-step Python overhead dominates.
* ``wide-grid``: the same simulator on large 2D grids, where array
  arithmetic dominates instead of per-call overhead.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from pathlib import Path

from fdtd_stability import analyzer, cli, simulator
from fdtd_stability.schemes import MediumModel, Scheme, Wavenumber, dimensionless_params

HERE = Path(__file__).resolve().parent
VERIFY_REFERENCE = HERE / "verify_reference.csv"

WATER = MediumModel.debye(1.8, 81.0, 9.4e-12)
FOAM = MediumModel.debye(1.01, 1.16, 6.497e-10)
MATERIAL_A = MediumModel.lorentz(1.0, 2.25, 4e16, 0.56e16)
MATERIAL_B = MediumModel.lorentz(1.5, 3.0, 2 * math.pi * 5e10, 1e10)


class BoundarySearch:
    """Largest stable time step for the nine distinct reference cases of
    the condition-table and numeric-crossover acceptance criteria, plus one
    seeded space step for each scheme whose boundary is a pure Courant
    condition.  An item is ok when k* lies within its tolerance."""

    name = "boundary-search"
    PASS_S = 13.0
    required_layers = ("analyzer", "polyloc", "schemes")

    def __init__(self, seed: int):
        sqrt2 = math.sqrt(2.0)
        k_omega_a = 2.0 / (MATERIAL_A.omega1 * math.sqrt(2 * 2.25 - 1))
        k_omega_b = 2.0 / (MATERIAL_B.omega1 * math.sqrt(2 * 2.0 - 1))
        # (scheme, medium, h, expected k*, relative tolerance); the foam
        # case carries the tighter of its two criteria (2 t_r within 1%,
        # and 1.3e-9 within 2%, which 2 t_r = 1.2994e-9 also satisfies).
        cases = [
            (Scheme.DEBYE_JOSEPH, WATER, 1e-5, 1e-5 / WATER.c_inf, 0.01),
            (Scheme.DEBYE_YOUNG, WATER, 1e-5, 1e-5 / WATER.c_inf, 0.01),
            (Scheme.DEBYE_YOUNG, FOAM, 4.0, 2 * FOAM.t_r, 0.01),
            (Scheme.LORENTZ_JOSEPH, MATERIAL_A, 1e-8,
             1e-8 / (sqrt2 * MATERIAL_A.c_inf), 0.01),
            (Scheme.LORENTZ_KASHIWA, MATERIAL_A, 1e-8, 1e-8 / MATERIAL_A.c_inf, 0.01),
            (Scheme.LORENTZ_YOUNG, MATERIAL_A, sqrt2 * MATERIAL_A.c_inf * k_omega_a,
             k_omega_a, 0.01),
            (Scheme.DEBYE_YOUNG, WATER, 4.2e-3, 1.88e-11, 0.02),
            (Scheme.LORENTZ_YOUNG, MATERIAL_A, 1.13e-8, 2.7e-17, 0.03),
            (Scheme.LORENTZ_YOUNG, MATERIAL_B, sqrt2 * MATERIAL_B.c_inf * k_omega_b,
             3.6e-12, 0.03),
        ]
        rng = random.Random(seed)
        for scheme, medium, h_ref, courant in (
                (Scheme.DEBYE_JOSEPH, WATER, 1e-5, 1.0),
                (Scheme.LORENTZ_KASHIWA, MATERIAL_A, 1e-8, 1.0),
                (Scheme.LORENTZ_JOSEPH, MATERIAL_A, 1e-8, 1.0 / sqrt2)):
            h = h_ref * 2.0 ** rng.uniform(-1.0, 1.0)
            cases.append((scheme, medium, h, courant * h / medium.c_inf, 0.01))
        self.items = cases

    def warm_up(self) -> None:
        scheme, medium, h, k_star, _ = self.items[0]
        analyzer.worst_case_verdict(scheme, medium, 0.5 * k_star, h)

    def run_item(self, item) -> bool:
        scheme, medium, h, expected, tol = item
        res = analyzer.stability_boundary_k(scheme, medium, h)
        return res.k_star is not None and abs(res.k_star - expected) <= tol * expected

    def end_pass(self) -> bool:
        return True


def verify_key(pt) -> str:
    """Order-independent identity of a verify plan point."""
    return "|".join((pt.scheme.value, pt.medium_name, str(pt.dim),
                     pt.polarization or "", pt.regime, f"{pt.k:.6e}",
                     f"{pt.h:.6e}", str(pt.grid), str(pt.steps)))


def verdict_columns(row) -> str:
    """The verify row's in_margin_band, analytic_stable, empirical_stable
    and agree columns."""
    return "".join("1" if v else "0" for v in row[10:14])


def verify_digest(verdicts: dict[str, str]) -> str:
    text = "".join(f"{k}={verdicts[k]}\n" for k in sorted(verdicts))
    return hashlib.sha256(text.encode()).hexdigest()


def load_verify_reference() -> dict[str, str]:
    with open(VERIFY_REFERENCE, newline="") as f:
        return {row["key"]: row["verdicts"] for row in csv.DictReader(f)}


class VerifySweep:
    """Every point of the analyzer/simulator verify plan, in a seeded
    order, one ``cli.run_verify`` call per point.  An item is ok when it
    has no hard disagreement and its verdict columns equal the recorded
    reference; a complete pass must also reproduce the reference digest."""

    name = "verify-sweep"
    PASS_S = 19.7
    required_layers = ("cli", "analyzer", "simulator")

    def __init__(self, seed: int):
        plan = cli.build_verify_plan()
        random.Random(seed).shuffle(plan)
        self.items = plan
        self.reference = load_verify_reference()
        if len(self.reference) != len(plan) or any(
                verify_key(pt) not in self.reference for pt in plan):
            raise SystemExit("verify plan does not match the recorded reference")
        self._seen: dict[str, str] = {}

    def warm_up(self) -> None:
        cli.run_verify([cli.build_verify_plan()[0]])

    def run_item(self, pt) -> bool:
        rows, hard = cli.run_verify([pt])
        key = verify_key(pt)
        self._seen[key] = verdict_columns(rows[0])
        return hard == 0 and self._seen[key] == self.reference[key]

    def end_pass(self) -> bool:
        ok = verify_digest(self._seen) == verify_digest(self.reference)
        self._seen = {}
        return ok


class WideGrid:
    """Long 2D growth runs on a 256 x 256 grid, TE and TM, for a Debye and
    a Lorentz scheme whose 2D limit is q <= 4; half the time steps put the
    whole grid well inside the stable range, half put the excited mode well
    outside it.  The seed draws the excited grid mode.  An item is ok when
    the empirical verdict equals ``classify_point_2d`` and the intended
    regime."""

    name = "wide-grid"
    PASS_S = 6.6
    required_layers = ("analyzer", "simulator")
    GRID = 256
    STEPS = 400
    # Both schemes are stable up to q = 4: the largest grid q of a
    # stable run, and the excited mode's q of an unstable run.
    STABLE_Q_MAX = 2.4
    UNSTABLE_Q = 4.6

    def __init__(self, seed: int):
        rng = random.Random(seed)
        n = self.GRID
        items = []
        # Unstable runs excite a mode near the grid's highest one, so that
        # no grid mode has a q much above the excited mode's; round-off then
        # grows at most a little faster than the excited mode, and 400 steps
        # stay far from overflow, so every run is exactly 400 steps long.
        for scheme, medium in ((Scheme.DEBYE_JOSEPH, WATER),
                               (Scheme.LORENTZ_KASHIWA, MATERIAL_A)):
            h = 1e-5 if medium.kind == "debye" else \
                medium.c_inf * math.sqrt(0.6) / medium.omega1
            for pol in ("te", "tm"):
                for stable in (True, False):
                    low = n // 4 if stable else 3 * n // 8
                    m_x, m_y = rng.randint(low, n // 2), rng.randint(low, n // 2)
                    xi_x, xi_y = 2 * math.pi * m_x / n, 2 * math.pi * m_y / n
                    if stable:
                        lam = math.sqrt(self.STABLE_Q_MAX / 8.0)
                    else:
                        s2 = math.sin(xi_x / 2) ** 2 + math.sin(xi_y / 2) ** 2
                        lam = math.sqrt(self.UNSTABLE_Q / (4.0 * s2))
                    k = lam * h / medium.c_inf
                    wn = Wavenumber(xi_x, xi_y, h_x=h, h_y=h)
                    items.append((scheme, medium, k, h, wn, pol, stable))
        self.items = items

    def warm_up(self) -> None:
        scheme, medium, k, h, wn, pol, _ = self.items[0]
        simulator.run_growth(scheme, medium, k, h, wn, 100, polarization=pol,
                             grid=(self.GRID, self.GRID))

    def run_item(self, item) -> bool:
        scheme, medium, k, h, wn, pol, stable = item
        rep = simulator.run_growth(scheme, medium, k, h, wn, self.STEPS,
                                   polarization=pol, grid=(self.GRID, self.GRID))
        empirical = simulator.empirical_verdict(rep).stable
        params = dimensionless_params(medium, k, h)
        analytic = analyzer.classify_point_2d(scheme, params, wn, pol).stable
        return empirical == analytic == stable

    def end_pass(self) -> bool:
        return True


WORKLOADS = {w.name: w for w in (BoundarySearch, VerifySweep, WideGrid)}
