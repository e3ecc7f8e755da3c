"""Automated performance-regression testing (§"Automated Validation").

Characterizes the ``repro.check`` detector battery under realistic
run-to-run noise and records the result to ``BENCH_regression.json`` at
the repository root.  Each trial draws one baseline and one candidate
series, and every detector judges that same pair, so the record says
not only how often a detector is firm but how often it is the *only*
firm detector: what it catches that the others miss.  The cases:

* ``uniform`` — every candidate sample is slower by the magnitude
  (0–50 %): per-detector recall (the ``roc``) and the false-positive
  rate on clean commit pairs (the 0 % point);
* ``growth`` — the candidate grows linearly along the sample index, by
  the magnitude at its last sample: a change of scaling exponent, flat
  to linear, that moves the mean by half the magnitude;
* ``ramp`` — the candidate tilts from −m/2 to +m/2 around the
  baseline level: a change of shape that keeps the mean;
* ``stall`` — two of the ten candidate samples, at random positions,
  stall by the magnitude (30–100 %).

For each case, magnitude and detector the record keeps the firm rate
(what a CI gate acts on), the suspicious rate (firm + maybe) and the
only-firm rate.  It also times one verdict per detector (paid on every
CI build and every ``no_regression`` assertion): ten rounds, each on a
fresh series pair with the detector order rotated, recorded as per-round
samples with their median and quartiles, beside the commit, ``cpu_count``
and the Python version.  Run standalone
(``python benchmarks/bench_ci_regression.py``) or via pytest
(``pytest benchmarks/bench_ci_regression.py``).
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from conftest import commit, save_figure_data, summary

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_regression.json"

THRESHOLD = 0.10
NOISE_COV = 0.03
SAMPLES = 10
STALLED = 2
TRIALS = 200
LATENCY_ROUNDS = 10
CALLS_PER_ROUND = 50

#: Position along the run, 0 at the first sample and 1 at the last.
INDEX = np.linspace(0.0, 1.0, SAMPLES)


def _stall(rng, magnitude):
    factors = np.ones(SAMPLES)
    factors[rng.choice(SAMPLES, STALLED, replace=False)] += magnitude
    return factors


#: case -> (candidate level per sample, relative to the baseline's; magnitudes)
CASES = {
    "uniform": (
        lambda rng, m: np.full(SAMPLES, 1.0 + m),
        (0.0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50),
    ),
    "growth": (lambda rng, m: 1.0 + m * INDEX, (0.10, 0.20, 0.30, 0.50)),
    "ramp": (lambda rng, m: 1.0 + m * (INDEX - 0.5), (0.10, 0.20, 0.30, 0.50)),
    "stall": (_stall, (0.30, 0.50, 1.00)),
}


def _detectors():
    from repro.check.detectors import default_detectors

    return default_detectors(threshold=THRESHOLD)


def _series(rng, levels):
    return 10.0 * levels * (1.0 + NOISE_COV * rng.standard_normal(SAMPLES))


def _judge(detectors, cases=CASES) -> dict:
    """case -> magnitude -> one list of verdicts (one per detector) per trial."""
    from repro.common.rng import derive_rng

    judged: dict = {}
    for case, (levels, magnitudes) in cases.items():
        for magnitude in magnitudes:
            rng = derive_rng(99, "regression", case, str(magnitude))
            trials = []
            for _ in range(TRIALS):
                baseline = _series(rng, np.ones(SAMPLES))
                current = _series(rng, levels(rng, magnitude))
                trials.append([d.detect(baseline, current) for d in detectors])
            judged.setdefault(case, {})[magnitude] = trials
    return judged


def _rates(trials) -> list[dict[str, float]]:
    """Per detector: firm, suspicious and only-firm rates over the trials."""
    rates = []
    for verdicts in zip(*trials):
        firm = suspicious = only = 0
        for verdict, trial in zip(verdicts, trials):
            firm += verdict.regressed
            suspicious += verdict.suspicious
            only += verdict.regressed and sum(v.regressed for v in trial) == 1
        rates.append(
            {
                "firm_rate": firm / len(trials),
                "suspicious_rate": suspicious / len(trials),
                "only_firm_rate": only / len(trials),
            }
        )
    return rates


def _characterize(detectors, cases=CASES) -> dict:
    """case -> magnitude -> detector name -> rates."""
    names = [d.name for d in detectors]
    return {
        case: {
            magnitude: dict(zip(names, _rates(trials)))
            for magnitude, trials in per_magnitude.items()
        }
        for case, per_magnitude in _judge(detectors, cases).items()
    }


def _latencies(detectors) -> dict[str, list[float]]:
    """Microseconds per verdict, per detector, one value per round."""
    from repro.common.rng import derive_rng

    rng = derive_rng(1, "latency")
    micros: dict[str, list[float]] = {d.name: [] for d in detectors}
    for round_no in range(LATENCY_ROUNDS):
        baseline = _series(rng, np.ones(SAMPLES))
        current = _series(rng, np.full(SAMPLES, 1.05))
        shift = round_no % len(detectors)
        for detector in detectors[shift:] + detectors[:shift]:
            detector.detect(baseline, current)  # warm-up (imports, caches)
            started = time.perf_counter()
            for _ in range(CALLS_PER_ROUND):
                detector.detect(baseline, current)
            elapsed = time.perf_counter() - started
            micros[detector.name].append(elapsed / CALLS_PER_ROUND * 1e6)
    return micros


def _pct(magnitude: float) -> str:
    return f"{100 * magnitude:.0f}%"


def _roc_table(uniform: dict):
    from repro.common.tables import MetricsTable

    table = MetricsTable(
        ["detector", "slowdown_pct", "detection_rate", "suspicious_rate"]
    )
    for detector in uniform[0.0]:
        for slowdown, per_detector in uniform.items():
            table.append(
                {
                    "detector": detector,
                    "slowdown_pct": 100 * slowdown,
                    "detection_rate": per_detector[detector]["firm_rate"],
                    "suspicious_rate": per_detector[detector]["suspicious_rate"],
                }
            )
    return table


def run_bench() -> dict:
    detectors = _detectors()
    rates = _characterize(detectors)
    latencies = _latencies(detectors)
    uniform = rates["uniform"]
    report = {
        "benchmark": "regression-detector-suite",
        "trials_per_point": TRIALS,
        "samples_per_series": SAMPLES,
        "noise_cov": NOISE_COV,
        "threshold": THRESHOLD,
        "detectors": {
            name: {
                "false_positive_rate": uniform[0.0][name]["firm_rate"],
                "suspicious_false_positive_rate": uniform[0.0][name][
                    "suspicious_rate"
                ],
                "recall_at_30pct": uniform[0.30][name]["firm_rate"],
                "recall_at_50pct": uniform[0.50][name]["firm_rate"],
                "suspicious_at_30pct": uniform[0.30][name]["suspicious_rate"],
                "suspicious_at_50pct": uniform[0.50][name]["suspicious_rate"],
                "micros_per_check": summary(latencies[name], digits=1),
                "roc": {
                    _pct(slowdown): per_detector[name]["firm_rate"]
                    for slowdown, per_detector in uniform.items()
                },
            }
            for name in latencies
        },
        "cases": {
            case: {_pct(m): per_detector for m, per_detector in per_magnitude.items()}
            for case, per_magnitude in rates.items()
        },
        "latency_rounds": LATENCY_ROUNDS,
        "calls_per_round": CALLS_PER_ROUND,
        "cpu_count": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "commit": commit(),
    }
    BENCH_FILE.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    save_figure_data(_roc_table(uniform), "table_ci_regression_roc")
    return report


def test_bench_detector_suite():
    report = run_bench()
    detectors = report["detectors"]
    assert list(detectors) == [
        "average-amount",
        "integral",
        "exclusive-time-outliers",
    ]
    # the gating detector keeps the historical contract: quiet on clean
    # pairs, near-certain on a 30% slowdown
    gate = detectors["average-amount"]
    assert gate["false_positive_rate"] < 0.05
    assert gate["recall_at_30pct"] > 0.95
    # no detector fires firm on identical distributions more than rarely
    assert all(d["false_positive_rate"] <= 0.10 for d in detectors.values())
    # every detector catches a 50% slowdown most of the time
    assert all(d["suspicious_at_50pct"] > 0.6 for d in detectors.values())
    assert all(d["recall_at_50pct"] > 0.6 for d in detectors.values())
    # a verdict is cheap enough to run on every build
    for d in detectors.values():
        assert len(d["micros_per_check"]["samples"]) == LATENCY_ROUNDS
        assert d["micros_per_check"]["median"] < 100_000
    # every point of every case rates every detector on shared trials
    for case, (_, magnitudes) in CASES.items():
        assert list(report["cases"][case]) == [_pct(m) for m in magnitudes]
        for per_detector in report["cases"][case].values():
            assert list(per_detector) == list(detectors)
            for entry in per_detector.values():
                assert entry["only_firm_rate"] <= entry["firm_rate"]
                assert entry["firm_rate"] <= entry["suspicious_rate"]
    # a detector stays in the battery only while it catches what the
    # others miss: each is the only firm one on some trials of some case
    for name in detectors:
        assert any(
            per_detector[name]["only_firm_rate"] > 0
            for per_magnitude in report["cases"].values()
            for per_detector in per_magnitude.values()
        ), f"{name} is never the only firm detector"
    assert BENCH_FILE.is_file()


def test_gate_detection_curve_is_monotone():
    """More slowdown, more detections — per detector, modulo noise."""
    detectors = _detectors()
    uniform = _characterize(detectors, {"uniform": CASES["uniform"]})["uniform"]
    for detector in detectors:
        curve = [point[detector.name]["firm_rate"] for point in uniform.values()]
        assert all(
            b >= a - 0.10 for a, b in zip(curve, curve[1:])
        ), f"{detector.name} detection curve not monotone: {curve}"


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    print(json.dumps(run_bench(), indent=2))
