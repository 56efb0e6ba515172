"""Benchmark of the ellgt verification report.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-default --seed 2026 \\
        --seconds 40 --trace 0

Each run starts ``worker.py`` in a process of its own with one BLAS
thread, runs whole passes of the workload for ``--seconds`` seconds,
grades every pass and prints one line per metric, then, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer metrics of one extra traced pass.  Pass and check times
are scaled to the speed of a reference host by a calibration that the
worker runs while it runs the passes (README.md, "Host speed").
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS_DIR = HERE / "out"

# The elliptic parameters every workload runs at (VerifyConfig defaults).
Q, R = 0.5, 3.0

# Each workload: the VerifyConfig fields besides ``seed``, the suites for
# ``run_suites`` or the checks for ``run_check``, and the ranks it uses.
WORKLOADS: dict[str, dict] = {
    "verify-default": {"config": {}, "ranks": [2, 3]},
    "gt-n4": {
        "config": {"rank": 3, "n": 4, "samples": 1},
        "suites": ["gt"],
        "ranks": [3],
    },
    "weights-221": {
        "config": {"rank": 3, "shape": [2, 2, 1], "n": 5},
        "checks": [
            ["weights", "triangularity"],
            ["weights", "diagonal-closed-form"],
            ["weights", "transition"],
        ],
        "ranks": [3],
    },
}

CHECKS = {
    "theta": (
        "bracket-oddness",
        "bracket-real-shift",
        "bracket-modular-shift",
        "bracket-derivative-zero",
        "truncation-stability",
        "ratio-sign-agreement",
    ),
    "rmatrix": (
        "exchange-consistency",
        "dressed-exchange-consistency",
        "inversion",
        "zero-point-permutation",
    ),
    "weights": (
        "index-shift-closed-form",
        "triangularity",
        "diagonal-closed-form",
        "transition",
        "orthogonality",
        "quasi-periodicity",
        "envelope-restriction",
        "stable-round-trip",
    ),
    "shuffle": (
        "unit-laws",
        "associativity",
        "closure-expansion",
        "level-symmetry",
    ),
    "gt": (
        "exchange-on-module",
        "gauss-reassembly",
        "eigenbasis-recursion",
        "half-current-oracle",
        "half-current-relations",
        "central-element",
        "diagonal-commutativity",
        "five-site-printed-actions",
        "partial-fractions",
        "current-commutators",
        "highest-weight",
    ),
}

END_TO_END = {
    "wall_s": "s",
    "critical_check_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "samples_checked": "count",
}

_TIMED = (
    "weights.weight_function",
    "weights.fixed_point_coefficient",
    "partitions.dynamical_shift",
    "partitions.partitions_with_shape",
    "rmatrix.embedded_rbar",
    "gtrep.s_tilde",
    "gtrep.swap_matrix",
    "gtrep.gt_vector",
    "gtrep.gt_matrix",
    "gtrep.l_operator_full",
    "gtrep.half_current_matrix",
    "rmatrix.dressed_r_matrix",
    "rmatrix.dybe_residual",
    "gtrep.gauss_extract",
    "numpy.linalg",
    "shuffle.star",
)

PER_LAYER: dict[str, str] = {
    "theta.bracket.calls": "count",
    "theta.bracket.self_s": "s",
    "theta.bracket.distinct_args": "count",
    "theta.bracket_ratio_plus.calls": "count",
    "theta.bracket_ratio_minus.calls": "count",
    **{f"{name}.{stat}": unit for name in _TIMED
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "rmatrix.embedded_rbar.max_dim": "count",
    "gtrep.gauss_extract.resamples": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"verify.{suite}.{check}.wall_s": "s"
       for suite, names in CHECKS.items() for check in names},
    "trace.wall_s": "s",
}

SETUP_PROBES = 5
# Mean time of the timed part of one calibration sample
# (worker.Calibration) on the reference host, a 2-CPU Xeon VM.  Pass and
# check times are reported at this speed.
CALIBRATION_REFERENCE_S = 0.0020
POINTS_PER_RANK = 8
BRACKET_RTOL = 1e-12
TIME_LIMIT_S = 170.0


def reference_points(seed: int, ranks) -> dict[str, list[list[float]]]:
    """Seeded bracket arguments away from the zero at u = 0."""
    rng = random.Random(f"bracket-reference:{seed}")
    return {
        str(rank): [
            [rng.choice((-1, 1)) * rng.uniform(0.1, 1.4), rng.uniform(-0.25, 0.25)]
            for _ in range(POINTS_PER_RANK)
        ]
        for rank in ranks
    }


def reference_bracket(u: complex) -> complex:
    """[u] = q^(u^2/r - u) (z;p)(p/z;p)(p;p), z = q^(2u), p = q^(2r), in mpmath."""
    with mpmath.workdps(30):
        q, r = mpmath.mpf(Q), mpmath.mpf(R)
        log_q = mpmath.log(q)
        p = q ** (2 * r)
        u = mpmath.mpc(u.real, u.imag)
        z = mpmath.exp(2 * u * log_q)
        value = (
            mpmath.exp((u * u / r - u) * log_q)
            * mpmath.qp(z, p)
            * mpmath.qp(p / z, p)
            * mpmath.qp(p, p)
        )
        return complex(value)


def run_worker(request: dict, timeout: float) -> list[dict]:
    """Run ``worker.py`` on one request; its JSON lines, or an error."""
    proc = subprocess.run(
        [sys.executable, str(WORKER)],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def grade(passes: list[dict], checks: list, reference: dict) -> tuple[int, int, list[str]]:
    """Attempted and failed checks over all passes, and output faults.

    A check fails when it raises or is not reached, when a function it
    calls returns a NaN or an infinity, when the report does not say it
    passed, when its residual is not finite or exceeds its tolerance, or
    when its result differs from the first pass.  The faults list holds
    wrong outputs that are not a single check's: a report that differs
    between passes, or a bracket value that misses the mpmath reference.
    """
    attempted = failed = 0
    faults: list[str] = []
    first = {(c["suite"], c["name"]): c.get("result") for c in passes[0]["checks"]}
    first_report = json.dumps(passes[0]["report"], sort_keys=True)
    for number, record in enumerate(passes):
        seen = {(c["suite"], c["name"]): c for c in record["checks"]}
        for suite, name in checks:
            attempted += 1
            check = seen.get((suite, name), {})
            result = check.get("result")
            if not (
                result is not None
                and not check["nonfinite"]
                and result["passed"] is True
                and math.isfinite(result["residual"])
                and result["residual"] <= result["tol"]
                and result == first.get((suite, name))
            ):
                failed += 1
        if record["error"] is None and json.dumps(record["report"], sort_keys=True) != first_report:
            faults.append(f"pass {number}: report differs from pass 0")
        for rank, want in reference.items():
            for (u, ref), got in zip(want, record["bracket"][rank]):
                err = abs(complex(*got) - ref) / abs(ref)
                if not err <= BRACKET_RTOL:
                    faults.append(
                        f"pass {number}: bracket({complex(*u)}) at N={rank}"
                        f" is off the mpmath value by {err:.3g} relative"
                    )
    return attempted, failed, faults


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[workload]
    began = time.perf_counter()
    points = reference_points(seed, spec["ranks"])
    reference = {
        rank: [(u, reference_bracket(complex(*u))) for u in us]
        for rank, us in points.items()
    }
    request = {
        "config": spec["config"],
        "suites": spec.get("suites"),
        "checks": spec.get("checks"),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "points": points,
        "spans_out": str(SPANS_DIR / f"spans-{workload}.npz"),
    }
    setups = [
        run_worker({**request, "setup_only": True}, 60.0)[0]["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    lines = run_worker(request, TIME_LIMIT_S - (time.perf_counter() - began))
    head, end = lines[0], lines[-1]
    if not end.get("end"):
        raise RuntimeError("worker output ended early")
    if (head["q"], head["r"], head["ranks"]) != (Q, R, spec["ranks"]):
        raise RuntimeError(f"workload runs at q, r, ranks {head}, not {Q, R, spec['ranks']}")
    setups.append(head["setup_s"])
    passes = [line["pass"] for line in lines if "pass" in line]
    attempted, failed, faults = grade(passes, head["checks"], reference)
    untraced = [line["pass"] for line in lines if "pass" in line and not line.get("traced")]
    # The first pass fills the program's caches and lazy state: it is
    # graded, not timed.
    timed = untraced[1:]
    calibration = statistics.fmean(end["calibration_s"])
    raw_wall = statistics.median(p["wall_s"] for p in timed)

    if trace:
        metrics = layer_metrics(end["layers"], timed)
    else:
        metrics = {
            "wall_s": statistics.median(scaled(p, p) for p in timed),
            "critical_check_s": statistics.median(
                max(scaled(c, p) for c in p["checks"]) for p in timed
            ),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": end["peak_rss_mb"],
            "samples_checked": sum(
                c["result"]["samples"] for c in timed[0]["checks"] if "result" in c
            ),
        }
    units = PER_LAYER if trace else END_TO_END
    for fault in faults:
        print(f"fault: {fault}", file=sys.stderr)
    pass_times = " ".join(f"{p['wall_s']:.3f}" for p in untraced)
    print(
        f"{workload} seed={seed}: {attempted} checks attempted, {failed} failed;"
        f" pass times {pass_times} s (median {raw_wall:.3f} s after the first);"
        f" mean calibration {calibration * 1e3:.3f} ms"
    )
    return {
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def scaled(timed: dict, within: dict) -> float:
    """A pass's or check's time at the reference host's speed.

    Wall time adds up, so the host's speed over an interval is the mean
    time of the calibration samples taken in it.  A check too short to
    hold a sample takes the mean of its pass.
    """
    calibration = timed["calibration_s"] or within["calibration_s"]
    return timed["wall_s"] * CALIBRATION_REFERENCE_S / calibration


def layer_metrics(layers: dict, timed: list[dict]) -> dict:
    calls, self_s = layers["calls"], layers["self_s"]
    out: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls.get(base, 0)
        elif stat == "self_s" and base in LAYERS:
            out[name] = sum(
                t for span, t in self_s.items() if span.split(".")[0] == base
            )
        elif stat == "self_s":
            out[name] = self_s.get(base, 0.0)
    out["theta.bracket.distinct_args"] = layers["bracket_distinct_args"]
    out["rmatrix.embedded_rbar.max_dim"] = layers["embedded_max_dim"]
    out["gtrep.gauss_extract.resamples"] = layers["gauss_resamples"]
    out["trace.wall_s"] = layers["wall_s"]
    for suite, names in CHECKS.items():
        for check in names:
            times = [
                c["wall_s"]
                for p in timed
                for c in p["checks"]
                if (c["suite"], c["name"]) == (suite, check)
            ]
            out[f"verify.{suite}.{check}.wall_s"] = (
                statistics.median(times) if times else 0.0
            )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ellgt" / "__init__.py").is_file():
        print(f"error: no ellgt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
