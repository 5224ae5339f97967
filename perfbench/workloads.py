"""The four workloads.

A workload makes its inputs from the seed, warms up in prepare(), hands
out its operations a round at a time, and checks each output with the
independent checkers in oracles.py.  An operation is one result a user of
circlelab waits for.  Program functions are looked up on their modules at
call time, so a traced run sees every call through the span wrappers.
"""

from __future__ import annotations

import json
import os
import random
from functools import partial
from pathlib import Path

import circlelab as cl
from circlelab import cli

import oracles

HERE = Path(__file__).resolve().parent


class Tune:
    """Tune ArnoldFamily(b) to a quadratic-irrational target at tol 1e-11.

    Both cases start the orbit at x0 = 0, the library default: the cost of
    a tune moves by up to 60% with the base point, so the seed only orders
    the cases within a round."""

    CASES = ((0.05, (1,)), (0.3, (2,)))  # (b, period of the target's quotients)
    TOL = 1e-11
    workers = 1

    def __init__(self, seed: int, trace: bool, out_dir: Path):
        self.seed = seed

    def prepare(self):
        self.rng = random.Random(self.seed)
        cl.tune_parameter(cl.ArnoldFamily(0.3), cl.ContinuedFraction.golden(),
                          tol=1e-6)

    def round_ops(self):
        cases = list(self.CASES)
        self.rng.shuffle(cases)
        return [(f"b={b} period={list(period)}", (b, period),
                 partial(self._tune, b, period)) for b, period in cases]

    def _tune(self, b, period):
        target = cl.ContinuedFraction.periodic(list(period))
        a, est = cl.tune_parameter(cl.ArnoldFamily(b), target, tol=self.TOL)
        return float(a), est.bracket

    def check(self, spec, out):
        b, period = spec
        a, bracket = out
        return oracles.check_tune(b, a, bracket, self.TOL, period)


class Tongue:
    """One 50 x 20 tongue-scan grid through the CLI, a fresh seed per grid."""

    GRID = {"a_min": 0.0, "a_max": 1.0, "na": 50, "b_min": 0.0,
            "b_max": 0.95, "nb": 20, "n_max": 400, "burn_in": 256}

    def __init__(self, seed: int, trace: bool, out_dir: Path):
        self.seed = seed
        # the usable cores, at most 4; a traced run scans in-process, so the
        # spans see every cell
        self.workers = 1 if trace else min(4, len(os.sched_getaffinity(0)))
        self.dir = out_dir

    def _scan(self, config: Path, seed: int):
        out = self.dir / "out"
        rc = cli.main(["tongue-scan", "--config", str(config), "--out", str(out),
                       "--workers", str(self.workers), "--seed", str(seed)])
        csv = (out / "tongues.csv").read_text()
        summary = (out / "tongues.json").read_text()
        return rc, csv, len(csv.encode()) + len(summary.encode())

    def prepare(self):
        self.rng = random.Random(self.seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "scan.json"
        self.config.write_text(json.dumps({"scan": self.GRID}))
        warm = self.dir / "warm.json"
        warm.write_text(json.dumps({"scan": {**self.GRID, "na": 4, "nb": 2}}))
        self._scan(warm, 0)

    def round_ops(self):
        seed = self.rng.randrange(1 << 31)
        return [(f"seed={seed}", seed, partial(self._scan, self.config, seed))]

    def check(self, seed, out):
        rc, csv, _ = out
        problems = [] if rc == 0 else [f"tongue-scan exited {rc}"]
        return problems + oracles.check_tongue(csv, self.GRID, seed)

    @staticmethod
    def output_bytes(out) -> int:
        return out[2]


class Linearize:
    """Pre-tuned maps through kam_iterate, herman_average at two consecutive
    denominator times, and geometry_report with six levels.

    The seed orders the maps and picks the Herman denominators and the
    checker's grid offset.  geometry_report keeps its default base point
    x0 = 0: its rho certification costs up to 60% more or less with x0."""

    LEVELS = 6
    HERMAN_Q_MAX = 80
    workers = 1

    def __init__(self, seed: int, trace: bool, out_dir: Path):
        self.seed = seed

    def prepare(self):
        self.rng = random.Random(self.seed)
        data = json.loads((HERE / "linearize_inputs.json").read_text())
        self.maps = data["maps"]
        for m in self.maps:
            q = [qk for _, qk in oracles.convergents_of(
                oracles.periodic_quotients(m["period"], 40))]
            m["q"] = q[:self.LEVELS]
            m["herman_pairs"] = [(q0, q1) for q0, q1 in zip(q, q[1:])
                                 if q0 >= 5 and q1 <= self.HERMAN_Q_MAX]
            m["alpha"] = float(oracles.periodic_value(m["period"]))
        f = self._map(self.maps[0])
        cl.kam_step(f, self.maps[0]["alpha"], 8, 16, 0.02)
        cl.build_partition(f, 1, rho=self.maps[0]["alpha"], grid=256)

    @staticmethod
    def _map(m):
        if "b" in m:
            return cl.ArnoldFamily(m["b"]).map_at(m["a"])
        coeffs = [complex(re, im) for re, im in m["coeffs"]]
        return cl.AffineShiftFamily(cl.AnalyticCircleMap(0.0, coeffs)).map_at(m["a"])

    def round_ops(self):
        ops = []
        for m in self.rng.sample(self.maps, len(self.maps)):
            spec = (m, self.rng.choice(m["herman_pairs"]), self.rng.random())
            ops.append((m["name"], spec, partial(self._run, *spec[:2])))
        return ops

    def _run(self, m, herman_q):
        f = self._map(m)
        target = cl.ContinuedFraction.periodic(m["period"])
        kam = cl.kam_iterate(f, cl.KamConfig(target))
        rho = target.value()
        herman = [cl.herman_average(f, q, rho=rho, grid=1024) for q in herman_q]
        report = cl.geometry_report(f, self.LEVELS)
        return f, kam, herman, report

    def check(self, spec, out):
        m, _, offset = spec
        f, kam, herman, report = out
        problems = oracles.check_linearize(f, m["alpha"], kam, herman, report,
                                           m["q"], offset)
        return [f"{m['name']}: {p}" for p in problems]


class Arith:
    """classify on freshly built continued fractions, one of each kind per
    round, with the kind's parameters drawn from the seed."""

    KINDS = ("golden", "periodic", "bounded_prng", "exp_round",
             "exp_sqrt_ceil", "exp_qn_round", "log_power")
    workers = 1

    def __init__(self, seed: int, trace: bool, out_dir: Path):
        self.seed = seed

    def prepare(self):
        self.rng = random.Random(self.seed)
        cl.classify(cl.ContinuedFraction.from_json(self._spec("periodic")),
                    cl.ClassifyConfig(diophantine_depth=8, brjuno_depth=8,
                                      h_m_max=2, h_k_max=4, h_b_depth=8))

    def _spec(self, kind: str) -> dict:
        r = self.rng
        if kind == "golden":
            return {"quotients": [1], "tail": {"kind": "periodic", "start": 1,
                                               "period": 1}}
        if kind == "periodic":
            qs = [r.randint(1, 9) for _ in range(r.randint(1, 4))]
            return {"quotients": qs, "tail": {"kind": "periodic", "start": 1,
                                              "period": len(qs)}}
        rule = {"kind": "rule", "name": kind, "a1": r.randint(1, 6)}
        if kind == "bounded_prng":
            rule.update(seed=r.randrange(1 << 20), lo=1, hi=r.randint(2, 12))
        if kind == "log_power":
            rule.update(a1=r.randint(1, 5), c=r.choice((1.5, 2.0, 2.5)))
        return {"quotients": [], "tail": rule}

    def round_ops(self):
        ops = []
        for kind in self.KINDS:
            spec = (kind, self._spec(kind))
            ops.append((kind, spec, partial(self._classify, spec[1])))
        return ops

    @staticmethod
    def _classify(spec):
        return cl.classify(cl.ContinuedFraction.from_json(spec))

    def check(self, spec, verdict):
        kind, cf_json = spec
        problems = oracles.check_verdict(kind, verdict)
        if kind == "golden":
            depth = verdict.config.brjuno_depth
            b_lo, b_hi, tail = cl.brjuno_interval(
                cl.ContinuedFraction.from_json(cf_json), 0, depth,
                verdict.config.b_cap)
            problems += oracles.check_golden(verdict.diophantine.values,
                                             b_lo.to_float(), b_hi.to_float(),
                                             tail)
        return [f"{kind} {json.dumps(cf_json['tail'])}: {p}" for p in problems]


WORKLOADS = {"tune": Tune, "tongue": Tongue, "linearize": Linearize,
             "arith": Arith}
