"""Batch experiment runner.

Every module is exposed as a subcommand with a JSON config, optional flag
overrides, and CSV/JSON outputs carrying the fully resolved config for
provenance; validation, flags and defaults all derive from one spec per
subcommand.  Exit codes make sweeps scriptable: 0 computed a positive
verdict, 2 computed a negative one (diverged, fail_at, rational rotation
number, unreachable target), 1 means the computation itself failed.

Identical configs (seed included) produce byte-identical CSV outputs at any
worker count.  tongue-scan walks the orbits of a whole slice of its grid in
one batched closest-return scan (`rotation.closest_return_batch`), whose
per-cell arithmetic is that of the per-cell scan and does not depend on the
other cells; with --workers k the grid splits into k contiguous slices, one
per process, and rows are merged in canonical order.  tongues.json counts
the cells by how their rotation number was read: closest returns, the
Birkhoff-average fallback, or a locked (periodic) orbit.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import inspect
import json
import sys
from pathlib import Path
from typing import NamedTuple

from .arithmetic import ClassifyConfig, classify
from .circlemap import ArnoldFamily, family_from_json, map_from_json
from .contfrac import ContinuedFraction
from .errors import (CircleLabError, DerivativeBlowup, NotBrjuno,
                     NotDiffeomorphism, PeriodicOrbitDetected, RationalDetected,
                     TargetUnreachable, TilingFailure)
from .geometry import bootstrap_schedule, geometry_report
from .kam import KamConfig, _fmt, kam_iterate
from .rotation import (closest_return_batch, rotation_number_birkhoff,
                       rotation_number_closest_return, tune_parameter)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


def _splitmix01(seed: int, idx: int) -> float:
    x = (seed * 0x9E3779B97F4A7C15 + idx * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    x ^= x >> 30
    x = (x * 0x94D049BB133111EB) & ((1 << 64) - 1)
    x ^= x >> 31
    return (x & ((1 << 53) - 1)) / float(1 << 53)


# -- one spec per subcommand -------------------------------------------------

_F = (float, int)  # a float key also accepts an int
_CAST = {_F: float, int: int}
_TUNE_TOL = {"tune_tol": (_F, 1e-11)}  # the tol a configured family is tuned to


def _lib(owner, **types) -> dict:
    """key -> (accepted types, default), the default read off `owner`."""
    params = inspect.signature(owner).parameters
    return {k: (t, params[k].default) for k, t in types.items()}


class _Spec(NamedTuple):
    help: str
    out: str        # the JSON file a run writes
    need: tuple     # required top-level sections; "a|b" is met by either
    section: str    # the config section holding the keys
    keys: dict      # key -> (accepted types, default)
    flags: dict     # override flag -> key
    lower: dict = {}  # count key -> the least value a run accepts


_SPECS = {
    "classify": _Spec(
        "arithmetic verdict for a number", "classify.json", ("target",), "classify",
        _lib(ClassifyConfig, sigma=_F, diophantine_depth=int, brjuno_depth=int,
             h_m_max=int, h_k_max=int, h_b_depth=int, b_cap=_F),
        {"depth": "diophantine_depth", "sigma": "sigma"}),
    "rotnum": _Spec(
        "both rotation-number estimators", "rotnum.json", ("map",), "rotnum",
        {**_lib(rotation_number_birkhoff, x0=_F, n=int), **_lib(
            rotation_number_closest_return, depth=int, n_max=int, burn_in=int)},
        {"nmax": "n_max", "depth": "depth"},
        {"n": 1, "depth": 1, "n_max": 1, "burn_in": 0}),
    "tune": _Spec(
        "family parameter to a target number", "tune.json", ("family", "target"),
        "tune", _lib(tune_parameter, tol=_F), {"tol": "tol"}),
    "kam": _Spec(
        "full linearization run: trace + verdict", "kam.json",
        ("target", "map|family"), "kam",
        {**_lib(KamConfig, max_steps=int, divisor_floor=_F, threshold=_F),
         **_TUNE_TOL},
        {"tol": "tune_tol"}),
    "geometry": _Spec(
        "multi-level partition report", "geometry.json",
        ("map|family", "map|target"), "geometry",
        {"n_max": (int, 6), **_lib(geometry_report, grid=int, smoothness=int),
         **_TUNE_TOL},
        {"nmax": "n_max"}, {"n_max": 1, "grid": 1}),
    "tongue-scan": _Spec(
        "rho over an (a, b) grid", "tongues.json", (), "scan",
        {"a_min": (_F, 0.0), "a_max": (_F, 1.0), "na": (int, 50),
         "b_min": (_F, 0.0), "b_max": (_F, 0.95), "nb": (int, 20),
         "n_max": (int, 400), "burn_in": (int, 256)}, {"nmax": "n_max"},
        {"n_max": 1, "burn_in": 0}),
    "bootstrap": _Spec(
        "regularity bootstrap schedule", "bootstrap.json", (), "bootstrap",
        {"r": (_F, 5.0), "sigma": (_F, 0.0), "gamma0": (_F, 0.0), "steps": (int, 60)},
        {}),
}


def _resolve(spec: _Spec, cfg: dict) -> dict:
    """The config section, defaults filled in, cast to each key's type."""
    sec = cfg.get(spec.section) or {}
    return {k: d if sec.get(k) is None else _CAST[t](sec[k])
            for k, (t, d) in spec.keys.items()}


def _kam_config(k: dict, alpha_cf=None) -> KamConfig:
    return KamConfig(alpha_cf, **{n: v for n, v in k.items() if n != "tune_tol"})


def validate_config(subcommand: str, cfg: dict) -> list[str]:
    """Aggregated schema and cross-field violations, with field paths."""
    spec = _SPECS.get(subcommand)
    if spec is None:
        return [f"unknown subcommand {subcommand!r}"]
    if not isinstance(cfg, dict):
        return [f"config: expected a JSON object, got {type(cfg).__name__}"]
    out = [f"{need.replace('|', ' or ')}: required section missing"
           for need in spec.need if all(cfg.get(s) is None for s in need.split("|"))]
    sec = cfg.get(spec.section)
    names = [s for need in spec.need for s in need.split("|")] + [spec.section]
    typed = [(s, cfg.get(s), dict) for s in dict.fromkeys(names)]
    if isinstance(sec, dict):
        out += [f"{spec.section}.{k}: unknown key" for k in sec
                if k not in spec.keys]
        typed += [(f"{spec.section}.{k}", sec.get(k), t)
                  for k, (t, _) in spec.keys.items()]
    wrong = [f"{path}: expected {t}, got {type(v).__name__}"
             for path, v, t in typed if v is not None and not isinstance(v, t)]
    out += wrong
    m = cfg.get("map")
    map_fam = m.get("family") if isinstance(m, dict) else None
    if isinstance(map_fam, dict) and "a" not in map_fam:
        out.append("map.family.a: required")
    fam = cfg.get("family") or map_fam
    if isinstance(fam, dict):
        try:
            family_from_json(fam)
        except NotDiffeomorphism:
            out.append("family.b: |b| >= 1 is not a diffeomorphism")
        except (KeyError, TypeError, ValueError) as e:
            out.append(f"family: {e}")
    if isinstance(cfg.get("target"), dict):
        try:
            ContinuedFraction.from_json(cfg["target"])
        except Exception as e:
            out.append(f"target: {e}")
    if wrong:
        return out  # the cross-field checks below need well-typed values
    s = _resolve(spec, cfg)
    out += [f"{spec.section}.{k}: must be >= {lo}"
            for k, lo in spec.lower.items() if s[k] < lo]
    if subcommand == "kam":  # violations() does not read the target
        out.extend(f"kam: {v}" for v in _kam_config(s).violations())
    elif subcommand == "tongue-scan":
        if s["b_max"] >= 1.0:
            out.append("scan.b_max: must stay below 1")
        if s["na"] < 1 or s["nb"] < 1:
            out.append("scan.na/nb: grid must be nonempty")
    elif subcommand == "bootstrap" and s["r"] <= 2.0 + s["sigma"]:
        out.append("bootstrap.r: window empty, needs r > 2 + sigma")
    return out


# -- subcommand runners ------------------------------------------------------
# each takes the raw config, its resolved section and the parsed arguments,
# and returns (exit code, payload); `main` writes the negative stops they raise

def _map(cfg: dict, tune_tol: float):
    """The configured map, or the family member tuned to the target."""
    if cfg.get("map") is not None:
        return map_from_json(cfg["map"])
    family = family_from_json(cfg["family"])
    a, _ = tune_parameter(family, ContinuedFraction.from_json(cfg["target"]),
                          tol=tune_tol)
    return family.map_at(a)


def _negative(e: CircleLabError) -> dict:
    """The block naming a negative stop: the rational rotation number of a
    periodic orbit, an orbit derivative that left the overflow guard, the
    overlap of partition intervals that failed to tile, or the target a
    family cannot be tuned to."""
    if isinstance(e, PeriodicOrbitDetected):
        return {"rational": {"p": e.p, "q": e.q, "value": (e.p / e.q) % 1.0}}
    if isinstance(e, DerivativeBlowup):
        return {"blowup": str(e)}
    if isinstance(e, TilingFailure):
        return {"tiling_failure": {"overlap": e.overlap}}
    return {"unreachable": str(e)}


def run_classify(cfg: dict, c: dict, args) -> tuple:
    target = ContinuedFraction.from_json(cfg["target"])
    try:
        verdict = classify(target, ClassifyConfig(**c))
    except RationalDetected:  # a finite fraction is its last convergent
        p, q = target.convergent(len(target.to_json()["quotients"]))
        return EXIT_NEGATIVE, {"rational": {"p": p, "q": q}}
    h = verdict.condition_h
    negative = verdict.brjuno.diverging or (h is not None and h.kind == "fail_at")
    return EXIT_NEGATIVE if negative else EXIT_OK, {"verdict": verdict.to_json()}


def run_rotnum(cfg: dict, r: dict, args) -> tuple:
    f = map_from_json(cfg["map"])
    bk = rotation_number_birkhoff(f, r["x0"], r["n"])
    cr = rotation_number_closest_return(f, r["x0"], r["depth"], r["n_max"],
                                        burn_in=r["burn_in"])
    return EXIT_OK, {
        "birkhoff": {"value": bk.value, "error_bound": bk.error_bound, "n": bk.n},
        "closest_return": {"value": cr.value, "error_bound": cr.error_bound,
                           "n": cr.n, "method": cr.method,
                           "quotients": list(cr.extracted_quotients or ())}}


def run_tune(cfg: dict, t: dict, args) -> tuple:
    a, est = tune_parameter(family_from_json(cfg["family"]),
                            ContinuedFraction.from_json(cfg["target"]),
                            tol=t["tol"])
    return EXIT_OK, {
        "a": a, "rho": est.value, "error_bound": est.error_bound,
        "quotients": list(est.extracted_quotients or ())}


def run_kam(cfg: dict, k: dict, args) -> tuple:
    conf = _kam_config(k, ContinuedFraction.from_json(cfg["target"]))
    res = kam_iterate(_map(cfg, k["tune_tol"]), conf)
    (args.out / "kam_trace.csv").write_text(res.trace.to_csv())
    t = res.trace
    return (EXIT_OK if res.verdict == "linearized" else EXIT_NEGATIVE,
            {"verdict": res.verdict, "note": t.note, "defect": t.defect,
             "decay_exponent": t.decay_exponent, "steps": len(t.steps),
             "grid": t.grid, "counterterm": t.counterterm})


def run_geometry(cfg: dict, g: dict, args) -> tuple:
    rep = geometry_report(_map(cfg, g["tune_tol"]), n_max=g["n_max"],
                          smoothness=g["smoothness"], grid=g["grid"])
    (args.out / "geometry.csv").write_text(rep.to_csv())
    return EXIT_OK, rep.to_json_summary()


def _tongue_cell(cells: list, n_max: int, burn_in: int) -> list:
    """Rows (ia, ib, a, b, rho, locked, err_bound, method) of a slice of grid
    cells (ia, ib, a, b, x0), their orbits walked together."""
    maps = [ArnoldFamily(b).map_at(a) for _, _, a, b, _ in cells]
    results = closest_return_batch(maps, [c[4] for c in cells], depth=24,
                                   n_max=n_max, burn_in=burn_in)
    return [(*cell[:4], (r.p / r.q) % 1.0, True, 0.0, "locked")
            if isinstance(r, PeriodicOrbitDetected)
            else (*cell[:4], r.value, False, r.error_bound, r.method)
            for cell, r in zip(cells, results)]


def run_tongue_scan(cfg: dict, s: dict, args) -> tuple:
    na, nb, workers = s["na"], s["nb"], args.workers
    a0, a1, b0, b1 = s["a_min"], s["a_max"], s["b_min"], s["b_max"]
    cells = [(ia, ib, a0 + (a1 - a0) * ia / max(na - 1, 1),
              b0 + (b1 - b0) * ib / max(nb - 1, 1),
              _splitmix01(args.seed, ia * nb + ib))
             for ia in range(na) for ib in range(nb)]
    n_max, burn_in = s["n_max"], s["burn_in"]
    if workers > 1:  # one contiguous slice of the grid per worker
        k = min(workers, len(cells))
        slices = [cells[i * len(cells) // k:(i + 1) * len(cells) // k]
                  for i in range(k)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=k) as ex:
            parts = ex.map(_tongue_cell, slices, [n_max] * k, [burn_in] * k)
            rows = [r for part in parts for r in part]
    else:
        rows = _tongue_cell(cells, n_max, burn_in)
    lines = ["ia,ib,a,b,rho,locked,err_bound"] + [",".join(map(_fmt, r[:7]))
                                                  for r in rows]
    (args.out / "tongues.csv").write_text("\n".join(lines) + "\n")
    methods = {m: sum(r[7] == m for r in rows)
               for m in ("closest_return", "birkhoff", "locked")}
    return EXIT_OK, {"cells": len(rows), "workers": workers, "seed": args.seed,
                     "methods": methods}


def run_bootstrap(cfg: dict, b: dict, args) -> tuple:
    sched = bootstrap_schedule(**b)
    lines = ["k,gamma"] + [f"{k},{_fmt(g)}" for k, g in enumerate(sched)]
    (args.out / "bootstrap.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK, {"limit": sched[-1], "steps": len(sched) - 1}


# -- argument plumbing -------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="circlelab", description=(
        "batch experiments on circle-diffeomorphism linearization"))
    sub = p.add_subparsers(dest="cmd", required=True)
    for cmd, spec in _SPECS.items():
        sp = sub.add_parser(cmd, help=spec.help)
        sp.add_argument("--config", type=Path)
        sp.add_argument("--out", type=Path, default=Path("."))
        sp.add_argument("--seed", type=int, default=0)
        for flag, key in spec.flags.items():
            sp.add_argument(f"--{flag}", type=_CAST[spec.keys[key][0]],
                            help=f"overrides {spec.section}.{key}")
    # only tongue-scan splits its work between processes
    sub.choices["tongue-scan"].add_argument("--workers", type=int, default=1)
    sp = sub.add_parser("validate", help="schema-check a config, no side effects")
    sp.add_argument("subcommand", help="which schema to validate against")
    sp.add_argument("--config", type=Path)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = {}
    if args.config is not None:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"config: {e}", file=sys.stderr)
            return EXIT_ERROR
    if args.cmd == "validate":
        violations = validate_config(args.subcommand, cfg)
        print(json.dumps({"violations": violations}, indent=2))
        return EXIT_OK if not violations else EXIT_ERROR
    spec = _SPECS[args.cmd]
    for flag, key in spec.flags.items():
        if getattr(args, flag) is not None and isinstance(cfg, dict):
            cfg.setdefault(spec.section, {})[key] = getattr(args, flag)
    violations = validate_config(args.cmd, cfg)
    if violations:
        for v in violations:
            print(f"config violation: {v}", file=sys.stderr)
        return EXIT_ERROR
    args.out.mkdir(parents=True, exist_ok=True)
    cfg.setdefault("seed", args.seed)
    resolved = _resolve(spec, cfg)
    # looked up at call time, so a runner rebound on the module is the one run
    run = {"classify": run_classify, "rotnum": run_rotnum, "tune": run_tune,
           "kam": run_kam, "geometry": run_geometry,
           "tongue-scan": run_tongue_scan, "bootstrap": run_bootstrap}[args.cmd]
    try:
        code, payload = run(cfg, resolved, args)
    except (PeriodicOrbitDetected, TargetUnreachable, DerivativeBlowup,
            TilingFailure) as e:
        code, payload = EXIT_NEGATIVE, _negative(e)
    except (CircleLabError, ValueError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NEGATIVE if isinstance(e, NotBrjuno) else EXIT_ERROR
    payload = {"config": cfg, "resolved": resolved, **payload}
    (args.out / spec.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
