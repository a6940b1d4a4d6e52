"""Output checks for one benchmark run.

A run passes only if
  * `cli.main` returned 0 and every value of its CSV is finite;
  * each species' mass is stationary to round-off;
  * on the RK4 workloads, total momentum and energy are conserved to
    round-off (the EXP integrator's drift is reported, not gated);
  * H never rises by more than round-off;
  * on the scan, every fitted rate is within 1 % of the analytic rate,
    the tolerance the test suite pins;
  * at the default seed, the final record (per-species n, u, T and H;
    the fitted rates for the scan) matches `digest.json` within a
    tolerance tied to the Newton matching tolerance.

Series come as columns named like the diagnostics CSV; a scan's
per-value series are read from the `Diagnostics` objects it returns.
"""

from __future__ import annotations

import math

AXES = "xyz"

MATCH_TOL = 1e-13       # relative tolerance of bgkmix.grid.match_*
MASS_TOL = 1e-13        # relative; seed runs show ~2e-16
CONSERVE_TOL = 1e-12    # relative; RK4 seed runs show <= 2e-13
H_RISE_TOL = 1e-13      # relative to max(1, |H|); seed runs show 5e-15
RATE_RTOL = 1e-2
# A matching error of MATCH_TOL per target build accumulates at most
# linearly over the steps; the slack leaves room for a matcher that
# converges to a different point inside the tolerance.
DIGEST_SLACK = 10.0
# The scan fits log-amplitudes down to 1e-6 of a 1e-3 initial gap, where
# a matching error of MATCH_TOL is a relative error of 1e-4.
SCAN_DIGEST_RTOL = MATCH_TOL / (1e-6 * 1e-3)


def read_csv(path: str) -> dict[str, list[float]]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return {name: [float(row[i]) for row in rows]
            for i, name in enumerate(header)}


def columns_from_diagnostics(diag) -> dict[str, list[float]]:
    """The conserved totals and moments of a Diagnostics, by CSV name."""
    recs = diag.records
    cols = {"t": [r.t for r in recs],
            "total_mass1": [r.mass1 for r in recs],
            "total_mass2": [r.mass2 for r in recs],
            "total_energy": [r.energy for r in recs],
            "H": [r.h for r in recs]}
    for i, a in enumerate(AXES[:diag.dim]):
        cols[f"total_momentum_{a}"] = [float(r.momentum[i]) for r in recs]
    for k in (1, 2):
        moms = [getattr(r, f"mom{k}") for r in recs]
        cols[f"n{k}"] = [m.n for m in moms]
        cols[f"T{k}"] = [m.T for m in moms]
        for i, a in enumerate(AXES[:diag.dim]):
            cols[f"u{k}{a}"] = [float(m.u[i]) for m in moms]
    return cols


def _dim(cols) -> int:
    return sum(f"total_momentum_{a}" in cols for a in AXES)


def _momentum_scale(cols, masses) -> float:
    """sum_k m_k n_k (|u_k| + sqrt(T_k/m_k)) at step 0; never zero,
    unlike the total momentum, which vanishes for opposed drifts."""
    scale = 0.0
    for k, m in ((1, masses[0]), (2, masses[1])):
        speed = math.sqrt(sum(cols[f"u{k}{a}"][0] ** 2
                              for a in AXES[:_dim(cols)]))
        vth = math.sqrt(cols[f"T{k}"][0] / m)
        scale += m * cols[f"n{k}"][0] * (speed + vth)
    return scale


def drifts(cols, masses) -> dict[str, float]:
    """Largest relative drift against step 0 of mass, momentum, energy."""
    mass = max(abs(x - series[0]) / series[0]
               for series in (cols["total_mass1"], cols["total_mass2"])
               for x in series)
    axes = AXES[:_dim(cols)]
    p0 = [cols[f"total_momentum_{a}"][0] for a in axes]
    momentum = max(
        math.sqrt(sum((cols[f"total_momentum_{a}"][t] - p0[i]) ** 2
                      for i, a in enumerate(axes)))
        for t in range(len(cols["t"]))) / _momentum_scale(cols, masses)
    e = cols["total_energy"]
    energy = max(abs(x - e[0]) for x in e) / e[0]
    return {"mass": mass, "momentum": momentum, "energy": energy}


def check_series(cols, masses, rk4: bool) -> list[str]:
    """Problems with one relaxation series (empty when it passes)."""
    problems = [f"non-finite value in column {name}"
                for name, values in cols.items()
                if not all(math.isfinite(v) for v in values)]
    if problems:
        return problems
    d = drifts(cols, masses)
    if d["mass"] > MASS_TOL:
        problems.append(f"species mass drift {d['mass']:.3g} > {MASS_TOL:g}")
    if rk4 and d["momentum"] > CONSERVE_TOL:
        problems.append(f"momentum drift {d['momentum']:.3g} "
                        f"> {CONSERVE_TOL:g}")
    if rk4 and d["energy"] > CONSERVE_TOL:
        problems.append(f"energy drift {d['energy']:.3g} > {CONSERVE_TOL:g}")
    h = cols["H"]
    rise = max(b - a for a, b in zip(h, h[1:]))
    if rise > H_RISE_TOL * max(1.0, abs(h[0])):
        problems.append(f"H rose by {rise:.3g}")
    return problems


def check_rates(cols) -> list[str]:
    """Problems with a scan CSV: every fitted rate within RATE_RTOL."""
    problems = []
    for p, measured, analytic in zip(cols["parameter"],
                                     cols["lambda_measured"],
                                     cols["lambda_analytic"]):
        if not (math.isfinite(measured) and math.isfinite(analytic)):
            problems.append(f"non-finite rate at parameter {p:g}")
        elif abs(measured - analytic) > RATE_RTOL * abs(analytic):
            problems.append(f"fitted rate {measured:.6g} at parameter {p:g} "
                            f"is not within {RATE_RTOL:g} of {analytic:.6g}")
    return problems


def final_record(cols) -> dict[str, float]:
    """Digest values: final per-species n, u, T and H, or fitted rates."""
    if "lambda_measured" in cols:
        return {f"lambda_measured_{i}": v
                for i, v in enumerate(cols["lambda_measured"])}
    names = ["H"]
    for k in (1, 2):
        names += [f"n{k}", f"T{k}"]
        names += [f"u{k}{a}" for a in AXES[:_dim(cols)]]
    return {name: cols[name][-1] for name in names}


def _digest_scale(name: str, reference, masses) -> float:
    """The size a digest value is compared at: n_k, T_k, |u_k| plus the
    thermal speed, or max(1, |H|)."""
    if name == "H":
        return max(1.0, abs(reference["H"]))
    k = name[1]
    if name[0] in "nT":
        return reference[name]
    speed = math.sqrt(sum(v * v for key, v in reference.items()
                          if key.startswith(f"u{k}")))
    return speed + math.sqrt(reference[f"T{k}"] / masses[int(k) - 1])


def compare_digest(values, reference, steps: int, masses) -> list[str]:
    """Problems where `values` leave the digest's tolerance."""
    if reference is None:
        return ["no digest recorded for this workload"]
    if set(values) != set(reference):
        return [f"digest keys differ: {sorted(set(values) ^ set(reference))}"]
    problems = []
    for name, ref in sorted(reference.items()):
        if name.startswith("lambda"):
            tol = SCAN_DIGEST_RTOL * abs(ref)
        else:
            tol = (DIGEST_SLACK * MATCH_TOL * steps
                   * _digest_scale(name, reference, masses))
        if not abs(values[name] - ref) <= tol:
            problems.append(f"digest {name} = {values[name]!r} differs from "
                            f"{ref!r} by more than {tol:.3g}")
    return problems
