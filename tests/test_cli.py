import json
import math
import time
from pathlib import Path

import pytest

from circlelab import cli
from circlelab.arithmetic import ClassifyConfig
from circlelab.circlemap import ArnoldFamily
from circlelab.cli import _fmt, _splitmix01, main, validate_config
from circlelab.errors import (DerivativeBlowup, PeriodicOrbitDetected,
                              TargetUnreachable, TilingFailure)
from circlelab.rotation import rotation_number_closest_return

GOLDEN_CF = {"quotients": [1], "tail": {"kind": "periodic", "start": 1, "period": 1}}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def test_validate_clean_config():
    cfg = {"target": GOLDEN_CF, "family": {"kind": "arnold", "b": 0.05},
           "kam": {"max_steps": 10, "divisor_floor": 1e-8, "threshold": 1e-11,
                   "tune_tol": 1e-11}}
    assert validate_config("kam", cfg) == []


def test_validate_family_b_violation():
    cfg = {"target": GOLDEN_CF, "family": {"kind": "arnold", "b": 1.0},
           "tune": {"tol": 1e-8}}
    bad = validate_config("tune", cfg)
    assert any("diffeomorphism" in v for v in bad)


def test_validate_missing_sections_aggregated():
    bad = validate_config("tune", {})
    assert len(bad) >= 2  # family and target both reported, no fail-fast


def test_validate_cli_exit_codes(tmp_path):
    good = write_cfg(tmp_path, "good.json",
                     {"target": GOLDEN_CF, "classify": {"sigma": 0.0}})
    assert main(["validate", "classify", "--config", str(good)]) == 0
    bad = write_cfg(tmp_path, "bad.json",
                    {"target": GOLDEN_CF,
                     "kam": {"strips": [0.01, 0.03], "max_steps": 1}})
    assert main(["validate", "kam", "--config", str(bad)]) == 1


def test_classify_golden_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"target": GOLDEN_CF})
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "classify.json").read_text())
    assert out["verdict"]["condition_h"]["kind"] == "pass_to_depth"
    assert out["verdict"]["diophantine"]["certified"] is True
    assert out["config"]["target"] == GOLDEN_CF


def test_classify_tower_rule_exits_negative(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "target": {"quotients": [], "tail": {"kind": "rule",
                                             "name": "exp_round", "a1": 3}}})
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_rotnum_and_locked_exit(tmp_path):
    cfg = write_cfg(tmp_path, "r.json", {
        "map": {"family": {"kind": "arnold", "a": 0.61, "b": 0.3}},
        "rotnum": {"n": 1000, "depth": 8}})
    assert main(["rotnum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "rotnum.json").read_text())
    b, c = out["birkhoff"], out["closest_return"]
    assert abs(b["value"] - c["value"]) <= b["error_bound"] + c["error_bound"]
    locked = write_cfg(tmp_path, "l.json", {
        "map": {"family": {"kind": "arnold", "a": 0.02, "b": 0.9}},
        "rotnum": {"n": 500, "depth": 6, "burn_in": 400}})
    assert main(["rotnum", "--config", str(locked), "--out", str(tmp_path)]) == 2
    out = json.loads((tmp_path / "rotnum.json").read_text())
    assert out["rational"]["q"] >= 1


def test_kam_rotation_family_immediate(tmp_path):
    cfg = write_cfg(tmp_path, "k.json", {
        "target": GOLDEN_CF, "family": {"kind": "arnold", "b": 0.0},
        "kam": {"tune_tol": 1e-10}})
    assert main(["kam", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "kam.json").read_text())
    assert out["verdict"] == "linearized"
    assert out["steps"] == 0
    assert (out["grid"], out["counterterm"]) == (32, 0.0)
    trace = (tmp_path / "kam_trace.csv").read_text().strip().split("\n")
    assert trace[0].startswith("step,")
    assert trace[-1].startswith("# ")


def test_tune_cli_writes_certified_parameter(tmp_path):
    cfg = write_cfg(tmp_path, "t.json", {
        "target": GOLDEN_CF, "family": {"kind": "arnold", "b": 0.0},
        "tune": {"tol": 1e-10}})
    assert main(["tune", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "tune.json").read_text())
    assert abs(out["a"] - 0.6180339887498949) < 1e-9
    assert out["error_bound"] <= 1e-10 * 2


def test_kam_resolved_is_its_section_with_defaults(tmp_path):
    cfg = write_cfg(tmp_path, "k.json", {
        "target": GOLDEN_CF, "family": {"kind": "arnold", "b": 0.0},
        "kam": {"tune_tol": 1e-10}})
    assert main(["kam", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    resolved = json.loads((tmp_path / "kam.json").read_text())["resolved"]
    defaults = {k: d for k, (_, d) in cli._SPECS["kam"].keys.items()}
    assert resolved == {**defaults, "tune_tol": 1e-10}


def test_bootstrap_table(tmp_path):
    assert main(["bootstrap", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "bootstrap.csv").read_text().strip().split("\n")
    assert rows[0] == "k,gamma"
    assert len(rows) == 62  # header + gamma_0..gamma_60
    last = float(rows[-1].split(",")[1])
    assert 3.0 - 1e-6 <= last <= 3.0


def test_tongue_scan_determinism(tmp_path):
    cfg = write_cfg(tmp_path, "s.json", {
        "scan": {"na": 8, "nb": 4, "b_max": 0.9, "n_max": 200, "burn_in": 64}})
    d1, d2 = tmp_path / "w1", tmp_path / "w2"
    d1.mkdir()
    d2.mkdir()
    assert main(["tongue-scan", "--config", str(cfg), "--out", str(d1),
                 "--workers", "1", "--seed", "11"]) == 0
    assert main(["tongue-scan", "--config", str(cfg), "--out", str(d2),
                 "--workers", "2", "--seed", "11"]) == 0
    assert (d1 / "tongues.csv").read_bytes() == (d2 / "tongues.csv").read_bytes()
    rows = (d1 / "tongues.csv").read_text().strip().split("\n")
    assert rows[0] == "ia,ib,a,b,rho,locked,err_bound"
    assert len(rows) == 1 + 8 * 4


def _reference_tongue_rows(s: dict, seed: int) -> tuple:
    """CSV rows and method counts of a tongue-scan grid, each cell scanned
    on its own by rotation_number_closest_return (the per-cell algorithm
    the batched scan replaces)."""
    na, nb = s["na"], s["nb"]
    rows, methods = [], {"closest_return": 0, "birkhoff": 0, "locked": 0}
    for ia in range(na):
        for ib in range(nb):
            a = s["a_min"] + (s["a_max"] - s["a_min"]) * ia / max(na - 1, 1)
            b = s["b_min"] + (s["b_max"] - s["b_min"]) * ib / max(nb - 1, 1)
            x0 = _splitmix01(seed, ia * nb + ib)
            f = ArnoldFamily(b).map_at(a)
            try:
                est = rotation_number_closest_return(
                    f, x0, depth=24, n_max=s["n_max"], burn_in=s["burn_in"])
                row = (ia, ib, a, b, est.value, False, est.error_bound)
                methods[est.method] += 1
            except PeriodicOrbitDetected as po:
                row = (ia, ib, a, b, (po.p / po.q) % 1.0, True, 0.0)
                methods["locked"] += 1
            rows.append(",".join(map(_fmt, row)))
    return rows, methods


def test_tongue_scan_matches_per_cell_scans_at_every_worker_count(tmp_path):
    s = {"a_min": 0.0, "a_max": 1.0, "na": 12, "b_min": 0.0, "b_max": 0.95,
         "nb": 5, "n_max": 150, "burn_in": 64}
    cfg = write_cfg(tmp_path, "s.json", {"scan": s})
    rows, methods = _reference_tongue_rows(s, 7)
    expect = "\n".join(["ia,ib,a,b,rho,locked,err_bound"] + rows) + "\n"
    assert all(methods.values())  # every estimator path is on the grid
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        assert main(["tongue-scan", "--config", str(cfg), "--out", str(out),
                     "--workers", str(workers), "--seed", "7"]) == 0
        assert (out / "tongues.csv").read_text() == expect
        summary = json.loads((out / "tongues.json").read_text())
        assert summary["methods"] == methods


def test_geometry_cli_on_map(tmp_path, tuned):
    a = tuned(0.3, "golden")
    cfg = write_cfg(tmp_path, "g.json", {
        "map": {"family": {"kind": "arnold", "a": a, "b": 0.3}},
        "geometry": {"n_max": 4}})
    assert main(["geometry", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "geometry.csv").read_text().strip().split("\n")
    assert len(rows) == 5
    summary = json.loads((tmp_path / "geometry.json").read_text())
    assert summary["tiling_ok"] and summary["sandwich_ok"]
    assert summary["uncertified_levels"] == []


def test_unknown_config_file_errors(tmp_path):
    assert main(["classify", "--config", str(tmp_path / "nope.json")]) == 1


def test_flag_overrides_reach_config(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"target": GOLDEN_CF})
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path),
                 "--depth", "12"]) == 0
    out = json.loads((tmp_path / "classify.json").read_text())
    assert out["verdict"]["diophantine"]["depth"] == 12


@pytest.mark.parametrize("cmd,section,key,value", [
    ("rotnum", "rotnum", "burn_in", 1.5),
    ("geometry", "geometry", "tune_tol", "tight"),
])
def test_validate_types_every_key_a_runner_reads(cmd, section, key, value):
    cfg = {"target": GOLDEN_CF,
           "map": {"family": {"kind": "arnold", "a": 0.61, "b": 0.3}},
           section: {key: value}}
    bad = validate_config(cmd, cfg)
    assert any(v.startswith(f"{section}.{key}: expected") for v in bad)


@pytest.mark.parametrize("cmd,section,key,value,least", [
    ("rotnum", "rotnum", "n", 0, 1),
    ("rotnum", "rotnum", "depth", 0, 1),
    ("rotnum", "rotnum", "n_max", 0, 1),
    ("rotnum", "rotnum", "burn_in", -5, 0),
    ("tongue-scan", "scan", "n_max", 0, 1),
    ("tongue-scan", "scan", "burn_in", -5, 0),
    ("geometry", "geometry", "n_max", 0, 1),
    ("geometry", "geometry", "grid", 0, 1),
])
def test_validate_bounds_every_count_a_runner_rejects(cmd, section, key, value,
                                                      least):
    cfg = {"target": GOLDEN_CF,
           "map": {"family": {"kind": "arnold", "a": 0.61, "b": 0.3}},
           section: {key: value}}
    assert f"{section}.{key}: must be >= {least}" in validate_config(cmd, cfg)


@pytest.mark.parametrize("cmd,cfg,message", [
    ("tune", {"target": GOLDEN_CF, "family": {"kind": "arnold"}},
     "family: 'b'"),
    ("classify", {"target": {"quotients": [1], "tail": {"kind": "spiral"}}},
     "target: unknown tail kind 'spiral'"),
    ("tongue-scan", {"scan": {"b_max": 1.0}}, "scan.b_max: must stay below 1"),
    ("tongue-scan", {"scan": {"nb": 0}}, "scan.na/nb: grid must be nonempty"),
    ("bootstrap", {"bootstrap": {"r": 2.5, "sigma": 0.5}},
     "bootstrap.r: window empty, needs r > 2 + sigma"),
    ("nope", {}, "unknown subcommand 'nope'"),
    ("tongue-scan", {"scan": {"b_min": -1.2}}, "scan.b_min: must stay above -1"),
])
def test_validate_names_each_violation(tmp_path, capsys, cmd, cfg, message):
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["validate", cmd, "--config", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"violations": [message]}


@pytest.mark.parametrize("cmd", ["kam", "geometry"])
def test_validate_needs_map_or_family(cmd):
    bad = validate_config(cmd, {"target": GOLDEN_CF})
    assert "map or family: required section missing" in bad


def test_geometry_without_map_or_family_is_a_config_violation(tmp_path, capsys):
    rc = main(["geometry", "--config", str(CONFIGS / "tongue_scan.json"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "config violation: map or family" in capsys.readouterr().err


SAMPLE_SUBCOMMANDS = [
    ("classify_golden.json", "classify"), ("classify_liouville.json", "classify"),
    ("rotnum_arnold.json", "rotnum"), ("kam_arnold_golden.json", "kam"),
    ("kam_arnold_golden.json", "tune"), ("geometry_arnold.json", "geometry"),
    ("tongue_scan.json", "tongue-scan"),
]


def test_every_sample_config_is_covered():
    assert {name for name, _ in SAMPLE_SUBCOMMANDS} == {
        p.name for p in CONFIGS.glob("*.json")}


@pytest.mark.parametrize("name,cmd", SAMPLE_SUBCOMMANDS)
def test_sample_configs_validate_clean(name, cmd):
    assert validate_config(cmd, json.loads((CONFIGS / name).read_text())) == []


@pytest.mark.parametrize("key", ["strips", "base_truncation", "nu_0", "nu0"])
def test_a_key_the_spec_does_not_hold_is_a_violation(tmp_path, capsys, key):
    cfg = {"target": GOLDEN_CF, "family": {"kind": "arnold", "b": 0.05},
           "kam": {"max_steps": 1, key: 0.01}}
    assert validate_config("kam", cfg) == [f"kam.{key}: unknown key"]
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["kam", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert f"config violation: kam.{key}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "kam.json").exists()


def test_sections_of_other_subcommands_are_not_checked():
    cfg = {"target": GOLDEN_CF, "family": {"kind": "arnold", "b": 0.05},
           "kam": {"max_steps": 1}, "tune": {"strips": [0.01]},
           "scan": {"nu_0": 1}}
    assert validate_config("kam", cfg) == []


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_tongue_scan_needs_a_worker(tmp_path, capsys, workers):
    out = tmp_path / "out"
    assert main(["tongue-scan", "--config", str(CONFIGS / "tongue_scan.json"),
                 "--out", str(out), "--workers", workers]) == 1
    assert "config violation: --workers: must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [[c] for c in cli._SPECS if c != "tongue-scan"]
                         + [["validate", "kam"]])
def test_only_tongue_scan_takes_workers(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--out", "x"], ["--seed", "5"]])
def test_validate_takes_only_its_config(capsys, extra):
    argv = ["validate", "kam", "--config", str(CONFIGS / "kam_arnold_golden.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv + extra)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


def test_classify_demoted_fail_at_exits_zero(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "target": GOLDEN_CF, "classify": {"h_m_max": 1, "h_k_max": 1}})
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    h = json.loads((tmp_path / "classify.json").read_text())["verdict"]["condition_h"]
    assert (h["kind"], h["fail_m"]) == ("inconclusive", None)


def test_classify_finite_fraction_exits_rational(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "target": {"quotients": [3, 1, 4], "tail": {"kind": "finite"}}})
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    out = json.loads((tmp_path / "classify.json").read_text())
    assert out["rational"] == {"p": 5, "q": 19}


def test_outputs_carry_resolved_config(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"target": GOLDEN_CF})
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path),
                 "--depth", "12"]) == 0
    resolved = json.loads((tmp_path / "classify.json").read_text())["resolved"]
    defaults = ClassifyConfig()
    assert resolved.pop("diophantine_depth") == 12
    assert resolved == {k: getattr(defaults, k) for k in resolved}
    assert main(["bootstrap", "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "bootstrap.json").read_text())
    assert out["resolved"] == {"r": 5.0, "sigma": 0.0, "gamma0": 0.0, "steps": 60}


def test_map_family_without_a_is_a_config_violation(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {"map": {"family": {"kind": "arnold", "b": 0.3}}})
    assert validate_config("rotnum", json.loads(cfg.read_text())) == [
        "map.family.a: required"]
    assert main(["rotnum", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "config violation: map.family.a: required" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["bootstrap"], ["rotnum", "--nmax", "5"],
                                  ["validate", "kam"]])
def test_config_that_is_not_an_object_is_a_violation(tmp_path, capsys, argv):
    cfg = write_cfg(tmp_path, "c.json", [1, 2])
    assert main(argv + ["--config", str(cfg)]) == 1
    out = capsys.readouterr()
    assert "config: expected a JSON object, got list" in out.out + out.err


@pytest.mark.parametrize("b", [0.999, 0.9999])
def test_rotnum_near_b_one_ends_in_a_verdict(tmp_path, b):
    cfg = write_cfg(tmp_path, "r.json", {
        "map": {"family": {"kind": "arnold", "a": 0.6, "b": b}},
        "rotnum": {"n_max": 20000}})
    assert main(["rotnum", "--config", str(cfg), "--out", str(tmp_path)]) in (0, 2)
    out = json.loads((tmp_path / "rotnum.json").read_text())
    assert "closest_return" in out or "rational" in out


LOCKED_MAP = {"family": {"kind": "arnold", "a": 0.5, "b": 0.3}}  # rho = 1/2
EXP_ROUND_CF = {"quotients": [1],
                "tail": {"kind": "rule", "name": "exp_round", "a1": 1}}


@pytest.mark.parametrize("cmd", ["kam", "geometry"])
def test_locked_map_ends_with_its_rational(tmp_path, cmd):
    cfg = write_cfg(tmp_path, "c.json", {"target": GOLDEN_CF, "map": LOCKED_MAP})
    assert main([cmd, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    out = json.loads((tmp_path / f"{cmd}.json").read_text())
    assert out["rational"] == {"p": 1, "q": 2, "value": 0.5}
    assert out["config"]["map"] == LOCKED_MAP


@pytest.mark.parametrize("cmd", ["kam", "geometry"])
def test_unreachable_target_ends_unreachable(tmp_path, monkeypatch, cmd):
    # the tuner names this target unreachable before any probe (the test
    # below); a stand-in raising a fixed message pins the negative block
    def collapse(family, target, tol):
        assert (family.b, target.to_json()) == (0.3, EXP_ROUND_CF)
        raise TargetUnreachable("parameter bracket collapsed before certification")

    monkeypatch.setattr(cli, "tune_parameter", collapse)
    cfg = write_cfg(tmp_path, "c.json", {
        "target": EXP_ROUND_CF, "family": {"kind": "arnold", "b": 0.3}})
    assert main([cmd, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    out = json.loads((tmp_path / f"{cmd}.json").read_text())
    assert out["unreachable"] == "parameter bracket collapsed before certification"
    assert out["resolved"]["tune_tol"] == 1e-11


def test_kam_on_an_unbracketable_target_ends_before_any_probe(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "target": EXP_ROUND_CF, "family": {"kind": "arnold", "b": 0.3}})
    start = time.perf_counter()
    assert main(["kam", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 5.0
    out = json.loads((tmp_path / "kam.json").read_text())
    assert "narrower than 1.54e-09, above tol/2" in out["unreachable"]
    assert not (tmp_path / "kam_trace.csv").exists()


def test_kam_whose_step_fails_ends_diverged(tmp_path):
    # tuned to [10, 10, ...] at b = 0.6, the second Newton step's K is not
    # monotone; an unconverged run has no conjugacy, so no defect
    cfg = write_cfg(tmp_path, "c.json", {
        "target": {"quotients": [10],
                   "tail": {"kind": "periodic", "start": 1, "period": 1}},
        "family": {"kind": "arnold", "b": 0.6}})
    assert main(["kam", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    out = json.loads((tmp_path / "kam.json").read_text())
    assert (out["verdict"], out["steps"], out["grid"]) == ("diverged", 1, 32)
    assert out["note"].startswith("correction too large for a step: ")
    assert math.isnan(out["defect"]) and abs(out["counterterm"]) > 0.01
    assert len((tmp_path / "kam_trace.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("map_, counterterm", [
    ({"c": 0.3}, (math.sqrt(5.0) - 1.0) / 2.0 - 0.3), ("shifted", -4e-6)],
    ids=["rotation", "shifted"])
def test_kam_on_a_map_off_the_target_ends_diverged(tmp_path, tuned, map_,
                                                    counterterm):
    # rotation(0.3) and the golden-tuned b = 0.05 map moved 4e-6 both pass
    # the rotation check; the counterterm a - c they need ends them diverged
    if map_ == "shifted":
        map_ = {"family": {"kind": "arnold", "b": 0.05,
                           "a": tuned(0.05, "golden") + 4e-6}}
    cfg = write_cfg(tmp_path, "c.json", {"target": GOLDEN_CF, "map": map_})
    assert main(["kam", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    out = json.loads((tmp_path / "kam.json").read_text())
    assert out["verdict"] == "diverged" and math.isnan(out["defect"])
    assert out["counterterm"] == pytest.approx(counterterm, abs=1e-11)
    assert "counterterm a - c = " in out["note"]


def test_a_computation_that_fails_exits_with_an_error(tmp_path, capsys):
    # quotient 14 of this map's rotation number is below double precision
    cfg = json.loads((CONFIGS / "rotnum_arnold.json").read_text())
    path = write_cfg(tmp_path, "c.json", {"map": cfg["map"],
                                          "geometry": {"n_max": 40}})
    assert main(["geometry", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "RationalDetected: x does not determine quotient 14 ")
    assert not (tmp_path / "geometry.json").exists()


@pytest.mark.parametrize("error, block", [
    (DerivativeBlowup("orbit derivative product exceeded 1e+12"),
     {"blowup": "orbit derivative product exceeded 1e+12"}),
    (TilingFailure(2.5e-9), {"tiling_failure": {"overlap": 2.5e-9}}),
], ids=["blowup", "tiling_failure"])
def test_geometry_failure_ends_with_its_block(tmp_path, monkeypatch, error, block):
    def fail(f, **kw):
        raise error

    monkeypatch.setattr(cli, "geometry_report", fail)
    cfg = write_cfg(tmp_path, "c.json", {
        "target": GOLDEN_CF,
        "map": {"family": {"kind": "arnold", "a": 0.61, "b": 0.3}}})
    assert main(["geometry", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    out = json.loads((tmp_path / "geometry.json").read_text())
    assert {k: out[k] for k in block} == block
    assert not (tmp_path / "geometry.csv").exists()
