"""Synthetic soil dataset generator.

The soil-test archive used for real runs is not redistributable, so this
module produces a stand-in with plausible column ranges and a documented
yield response.  The response is deliberately nonlinear (a fertility peak
in pH, an interaction step, and a salinity hinge) so that tree ensembles
have a genuine advantage over linear fits on this data.

Generator contract (fixed; changing it invalidates golden hashes):

* one generator, ``numpy.random.default_rng(seed)``, drawn in this order:
  pH, EC, OC, P, K, Ca, Mg, S, Zn, Fe, Mn, Cu, then the noise vector;
* feature ranges: pH U(4, 9), EC U(0.05, 1.2) dS/m, OC U(0.2, 1.2) %,
  P U(5, 30), K U(25, 70) kg/ha, Ca U(1, 6), Mg U(0.5, 3) meq/100g,
  S U(5, 30), Zn U(0.5, 4), Fe U(5, 25), Mn U(5, 45), Cu U(0.2, 2) ppm;
  every feature is rounded to 3 decimals before the response is computed;
* response(computed from the rounded features) =
    20
    + 14  * exp(-((pH - 6.3) / 0.8)^2)        # fertility peak
    + 7   * [K > 47.5 and OC > 0.7]           # potassium x organic-carbon step
    + 0.3 * P                                 # linear phosphorus gain
    - 4   * [Zn < 1.0]                        # zinc deficiency penalty
    - 6   * clip((EC - 0.8) / 0.4, 0, 1)      # salinity hinge
* yield = max(response + Normal(0, 1.2), 0), rounded to 3 decimals.
"""

from __future__ import annotations

import numpy as np

from .dataset import CANONICAL_FEATURES, TARGET_COLUMN, Dataset, Provenance, soil_schema

_RANGES: tuple[tuple[str, float, float], ...] = (
    ("pH", 4.0, 9.0),
    ("EC", 0.05, 1.2),
    ("OC", 0.2, 1.2),
    ("P", 5.0, 30.0),
    ("K", 25.0, 70.0),
    ("Ca", 1.0, 6.0),
    ("Mg", 0.5, 3.0),
    ("S", 5.0, 30.0),
    ("Zn", 0.5, 4.0),
    ("Fe", 5.0, 25.0),
    ("Mn", 5.0, 45.0),
    ("Cu", 0.2, 2.0),
)

_NOISE_SD = 1.2


def yield_response(ph, ec, oc, p, k, zn) -> np.ndarray:
    """The documented noise-free yield response (vectorized)."""
    ph = np.asarray(ph, dtype=np.float64)
    peak = 14.0 * np.exp(-(((ph - 6.3) / 0.8) ** 2))
    step = 7.0 * ((np.asarray(k) > 47.5) & (np.asarray(oc) > 0.7))
    phosphorus = 0.3 * np.asarray(p)
    zinc_penalty = 4.0 * (np.asarray(zn) < 1.0)
    salinity = 6.0 * np.clip((np.asarray(ec) - 0.8) / 0.4, 0.0, 1.0)
    return 20.0 + peak + step + phosphorus - zinc_penalty - salinity


def generate(n: int, seed: int) -> Dataset:
    """Generate ``n`` synthetic soil rows under the canonical schema."""
    if n < 10:
        raise ValueError(f"need at least 10 rows, got {n}")
    rng = np.random.default_rng(seed)
    columns: dict[str, np.ndarray] = {}
    for name, low, high in _RANGES:
        columns[name] = np.round(rng.uniform(low, high, size=n), 3)
    noise = rng.normal(0.0, _NOISE_SD, size=n)
    response = yield_response(
        columns["pH"], columns["EC"], columns["OC"],
        columns["P"], columns["K"], columns["Zn"],
    )
    columns[TARGET_COLUMN] = np.round(np.maximum(response + noise, 0.0), 3)

    header = CANONICAL_FEATURES + (TARGET_COLUMN,)
    schema = soil_schema(header)
    return Dataset(
        schema=schema,
        values=np.column_stack([columns[c.name] for c in schema]),
        provenance=Provenance(source=f"synthetic(n={n}, seed={seed})", rows_read=n),
    )
