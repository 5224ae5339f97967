"""The checkers accept correct outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_oracles.py -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace as NS

import mpmath
import numpy as np
import pytest

import oracles
import spans

HERE = Path(__file__).resolve().parent
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# -- continued fractions -----------------------------------------------------


def test_periodic_value_closed_forms():
    with mpmath.workdps(50):
        assert abs(oracles.periodic_value([1]) - (mpmath.sqrt(5) - 1) / 2) < 1e-45
        assert abs(oracles.periodic_value([2]) - (mpmath.sqrt(2) - 1)) < 1e-45
        assert abs(oracles.periodic_value([1, 2]) - (mpmath.sqrt(3) - 1)) < 1e-45


def test_convergents_are_fibonacci_for_golden():
    assert [q for _, q in oracles.convergents_of([1] * 8)] == [1, 2, 3, 5, 8, 13, 21, 34]


# -- tune ----------------------------------------------------------------------


def _golden_bracket(shift=0.0, half=1e-12):
    return (GOLDEN + shift - half, GOLDEN + shift + half)


def test_tune_accepts_rotation_and_tuned_arnold():
    assert oracles.check_tune(0.0, GOLDEN, _golden_bracket(), 1e-11, (1,)) == []
    maps = json.loads((HERE / "linearize_inputs.json").read_text())["maps"]
    m = maps[0]
    assert m["b"] == 0.05 and m["period"] == [1]
    assert oracles.check_tune(m["b"], m["a"], _golden_bracket(), 1e-11, (1,)) == []


def test_tune_rejects_shifted_bracket():
    assert oracles.check_tune(0.0, GOLDEN, _golden_bracket(shift=3e-12),
                              1e-11, (1,))


def test_tune_rejects_wide_bracket():
    assert oracles.check_tune(0.0, GOLDEN, _golden_bracket(half=1e-10),
                              1e-11, (1,))


def test_tune_rejects_mistuned_parameter():
    problems = oracles.check_tune(0.0, GOLDEN + 1e-6, _golden_bracket(),
                                  1e-11, (1,))
    assert any("alternate" in p for p in problems)


# -- tongue scan ---------------------------------------------------------------


GRID = {"a_min": 0.0, "a_max": 1.0, "na": 12, "b_min": 0.0, "b_max": 0.9,
        "nb": 4, "n_max": 400, "burn_in": 256}


@pytest.fixture(scope="module")
def tongue_csv(tmp_path_factory):
    sys.path.insert(0, str(HERE.parent / "src"))
    from circlelab.cli import main
    d = tmp_path_factory.mktemp("tongue")
    (d / "scan.json").write_text(json.dumps({"scan": GRID}))
    assert main(["tongue-scan", "--config", str(d / "scan.json"), "--out",
                 str(d), "--seed", "5"]) == 0
    return (d / "tongues.csv").read_text()


def _edit(csv, pick, field, value):
    lines = csv.splitlines()
    head = lines[0].split(",")
    for i, line in enumerate(lines[1:], 1):
        row = dict(zip(head, line.split(",")))
        if pick(row):
            row[field] = value(row)
            lines[i] = ",".join(row[h] for h in head)
            return "\n".join(lines) + "\n"
    raise AssertionError("no row picked")


def test_tongue_accepts_program_output(tongue_csv):
    assert oracles.check_tongue(tongue_csv, GRID, 5) == []
    assert any(r["locked"] == "1" and float(r["b"]) > 0
               for r in oracles.parse_tongue_csv(tongue_csv))


def test_tongue_rejects_shifted_rho_at_b0(tongue_csv):
    bad = _edit(tongue_csv, lambda r: r["ib"] == "0" and r["ia"] == "5", "rho",
                lambda r: repr(float(r["rho"]) + 1e-3))
    assert oracles.check_tongue(bad, GRID, 5)


def test_tongue_rejects_wrong_locked_fraction(tongue_csv):
    bad = _edit(tongue_csv, lambda r: r["locked"] == "1" and float(r["b"]) > 0
                and 0 < float(r["a"]) < 1, "rho",
                lambda r: repr((float(r["rho"]) + 1 / 3) % 1.0))
    assert oracles.check_tongue(bad, GRID, 5)


def test_tongue_rejects_missing_row(tongue_csv):
    bad = "\n".join(tongue_csv.splitlines()[:-1]) + "\n"
    assert oracles.check_tongue(bad, GRID, 5)


def test_tongue_rejects_decreasing_row(tongue_csv):
    bad = _edit(tongue_csv, lambda r: r["ib"] == "2" and r["ia"] == "6", "rho",
                lambda r: repr(float(r["rho"]) - 0.2))
    assert oracles.check_tongue(bad, GRID, 5)


# -- linearization -------------------------------------------------------------


def _linearize_case(h_coeffs=(), verdict="linearized", defects=(1e-4, 5e-5),
                    q=(1, 2, 3)):
    f = NS(mean_shift=GOLDEN, coeffs=np.zeros(0, complex))
    kam = NS(verdict=verdict,
             h=NS(mean_shift=0.0, coeffs=np.asarray(h_coeffs, complex)))
    herman = [NS(n=n, defect=d, identity_residual=1e-15)
              for n, d in zip((21, 34), defects)]
    levels = [NS(n=n, q=qq, tiling_total=1.0, max_overlap=-1e-3, m=0.1,
                 M=0.3, qn_distance=0.2) for n, qq in enumerate(q, 1)]
    report = NS(levels=levels, denjoy=[NS(classical_residual=-1.0)] * len(q))
    return f, kam, herman, report


def _check_lin(case, expect_q=(1, 2, 3)):
    f, kam, herman, report = case
    return oracles.check_linearize(f, GOLDEN, kam, herman, report, expect_q,
                                   0.37)


def test_linearize_accepts_exact_conjugacy():
    assert _check_lin(_linearize_case()) == []


def test_linearize_rejects_perturbed_h():
    assert _check_lin(_linearize_case(h_coeffs=[1e-6j]))


def test_linearize_rejects_flipped_verdict():
    assert _check_lin(_linearize_case(verdict="diverged"))


def test_linearize_rejects_growing_herman_defect():
    assert _check_lin(_linearize_case(defects=(5e-5, 1e-4)))


def test_linearize_rejects_wrong_return_times():
    assert _check_lin(_linearize_case(q=(1, 2, 4)))


def test_linearize_rejects_broken_tiling():
    case = _linearize_case()
    case[3].levels[1].tiling_total = 1.0 + 1e-6
    assert _check_lin(case)


# -- arithmetic ----------------------------------------------------------------


def _verdict(diverging=False, h="pass_to_depth", certified=False):
    return NS(brjuno=NS(diverging=diverging),
              condition_h=None if h is None else NS(kind=h),
              diophantine=NS(certified=certified))


def test_verdict_properties_accept_expected_kinds():
    assert oracles.check_verdict("periodic", _verdict()) == []
    assert oracles.check_verdict("exp_round", _verdict(h="fail_at")) == []
    assert oracles.check_verdict("exp_qn_round", _verdict(True, None)) == []


@pytest.mark.parametrize("kind,verdict", [
    ("periodic", _verdict(h="fail_at")),
    ("bounded_prng", _verdict(diverging=True, h=None)),
    ("exp_round", _verdict(h="pass_to_depth")),
    ("exp_sqrt_ceil", _verdict(h="pass_to_depth")),
    ("exp_qn_round", _verdict(diverging=False, h="inconclusive")),
    ("log_power", _verdict(h="fail_at", certified=True)),
])
def test_verdict_properties_reject_flipped_verdicts(kind, verdict):
    assert oracles.check_verdict(kind, verdict)


def _golden_values(rel=0.0):
    return [float(v) * (1 - 1e-12 + rel) for v in oracles.golden_dioph_values(30)]


def test_golden_accepts_reference_values():
    b = oracles.golden_brjuno()
    assert oracles.check_golden(_golden_values(), b - 1e-9, b - 1e-12, 1e-9) == []


def test_golden_rejects_values_above_the_truth():
    b = oracles.golden_brjuno()
    assert oracles.check_golden(_golden_values(1e-9), b - 1e-9, b, 1e-9)


def test_golden_rejects_loose_values():
    b = oracles.golden_brjuno()
    assert oracles.check_golden(_golden_values(-1e-5), b - 1e-9, b, 1e-9)


def test_golden_rejects_bracket_missing_closed_form():
    b = oracles.golden_brjuno()
    assert oracles.check_golden(_golden_values(), b + 1e-6, b + 2e-6, 1e-9)


# -- the benchmark's declared metrics ------------------------------------------


def test_benchmark_json_lists_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(spans.PER_LAYER)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_s", "op_p90_s", "peak_rss_mib"}
    assert [w["name"] for w in bench["workloads"]] == \
        ["tune", "tongue", "linearize", "arith"]
