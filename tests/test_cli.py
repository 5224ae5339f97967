import json
from pathlib import Path

import pytest

from circlelab.arithmetic import ClassifyConfig
from circlelab.cli import main, validate_config

GOLDEN_CF = {"quotients": [1], "tail": {"kind": "periodic", "start": 1, "period": 1}}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def test_validate_clean_config():
    cfg = {"target": GOLDEN_CF, "family": {"kind": "arnold", "b": 0.05},
           "kam": {"nu0": 0.02, "max_steps": 10, "divisor_floor": 1e-8,
                   "threshold": 1e-11, "tune_tol": 1e-11}}
    assert validate_config("kam", cfg) == []


def test_validate_strip_schedule_violation():
    cfg = {"target": GOLDEN_CF,
           "kam": {"strips": [0.01, 0.02, 0.015], "max_steps": 2}}
    bad = validate_config("kam", cfg)
    assert any("strictly decreasing" in v for v in bad)


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
    ("kam", "kam", "base_truncation", 8.0),
    ("kam", "kam", "strips", 0.01),
    ("kam", "kam", "truncations", "16"),
])
def test_validate_types_every_key_a_runner_reads(cmd, section, key, value):
    cfg = {"target": GOLDEN_CF,
           "map": {"family": {"kind": "arnold", "a": 0.61, "b": 0.3}},
           section: {key: value}}
    bad = validate_config(cmd, cfg)
    assert any(v.startswith(f"{section}.{key}: expected") for v in bad)


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
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path)]) == 1
    out = capsys.readouterr()
    assert "config: expected a JSON object, got list" in out.out + out.err


def test_validate_kam_names_an_empty_strip_schedule():
    cfg = {"target": GOLDEN_CF, "family": {"kind": "arnold", "b": 0.05},
           "kam": {"strips": []}}
    assert validate_config("kam", cfg) == ["kam: strip schedule must not be empty"]
