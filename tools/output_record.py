"""Hash every output of a fixed set of CLI runs, to compare two source trees.

    python tools/output_record.py <src-dir> > record.txt

<src-dir> holds the `circlelab` package to run (a checkout's `src/`).  Each
run prints its exit code and one sha256 per stream and output file:

    <run> exit <code>
    <run> stdout|stderr|<file> <sha256>

The runs are every subcommand and `validate` on every `configs/*.json`,
plus edge inputs: a locked map, a `kam` map not tuned to its target, a
`kam` run near b = 1 (b = 0.97, tuned to sqrt 2 - 1), two
rotations, a finite fraction, an `exp_round` tower, a count-bound violation,
a small seeded tongue grid, the sample tongue grid split over two worker
processes (two seeds), `bootstrap`, and classify runs on golden and the
tower at `brjuno_depth` 30 (not the H check's depth) and at `h_m_max` 4 with
`h_k_max` 8 (a non-default end of the H check's Brjuno windows).  The last
line hashes the classify JSON of the `arith` mix of `perfbench/workloads.py`
(8 seeds x 3 rounds x 7 kinds) and both classify configs.  Run it on two
trees and diff the records: equal records mean byte-identical runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("classify", "rotnum", "tune", "kam", "geometry",
               "tongue-scan", "bootstrap")
GOLDEN = {"quotients": [1], "tail": {"kind": "periodic", "start": 1,
                                     "period": 1}}
SQRT2 = {"quotients": [2], "tail": {"kind": "periodic", "start": 1,
                                    "period": 1}}
TOWER = {"quotients": [], "tail": {"kind": "rule", "name": "exp_round", "a1": 3}}
FINITE = {"quotients": [2, 3], "tail": {"kind": "finite"}}
ARITH_KINDS = ("golden", "periodic", "bounded_prng", "exp_round",
               "exp_sqrt_ceil", "exp_qn_round", "log_power")

# (name, argv, config): edge inputs beyond the sample configs
EXTRA = [
    ("locked-rotnum", ["rotnum"],
     {"map": {"family": {"kind": "arnold", "a": 0.5, "b": 0.3}}}),
    ("locked-kam", ["kam"],
     {"target": GOLDEN, "map": {"family": {"kind": "arnold", "a": 0.5, "b": 0.3}}}),
    ("mistuned-kam", ["kam"],
     {"target": GOLDEN, "map": {"family": {"kind": "arnold", "a": 0.55, "b": 0.3}}}),
    ("near-b1-kam", ["kam"],
     {"target": SQRT2, "family": {"kind": "arnold", "b": 0.97},
      "kam": {"tune_tol": 1e-11}}),
    ("locked-geometry", ["geometry"],
     {"target": GOLDEN, "map": {"family": {"kind": "arnold", "a": 0.5, "b": 0.3}}}),
    ("rotation-rotnum", ["rotnum"],
     {"map": {"family": {"kind": "arnold", "a": 0.3819660112501051, "b": 0.0}}}),
    ("rotation-geometry", ["geometry"],
     {"target": GOLDEN,
      "map": {"family": {"kind": "arnold", "a": 0.3819660112501051, "b": 0.0}}}),
    ("rational-rotation-geometry", ["geometry"],
     {"target": GOLDEN, "map": {"family": {"kind": "arnold", "a": 0.5, "b": 0.0}}}),
    ("finite-classify", ["classify"], {"target": FINITE}),
    ("finite-tune", ["tune"],
     {"target": FINITE, "family": {"kind": "arnold", "b": 0.3}}),
    ("tower-classify", ["classify"], {"target": TOWER}),
    ("count-bound", ["rotnum"],
     {"map": {"family": {"kind": "arnold", "a": 0.61, "b": 0.3}},
      "rotnum": {"n": 0, "burn_in": -1}}),
    ("small-tongue", ["tongue-scan", "--seed", "42"],
     {"scan": {"na": 5, "nb": 4, "n_max": 300}}),
] + [
    (f"tongue-workers2-seed{seed}",
     ["tongue-scan", "--config", str(ROOT / "configs" / "tongue_scan.json"),
      "--workers", "2", "--seed", str(seed)], None)
    for seed in (7, 42)
] + [
    ("bootstrap-flags", ["bootstrap"], {"bootstrap": {"r": 4.0, "steps": 12}}),
] + [
    (f"{name}-classify-{tag}", ["classify"], {"target": target, "classify": c})
    for name, target in (("golden", GOLDEN), ("tower", TOWER))
    for tag, c in (("brjuno-depth30", {"brjuno_depth": 30}),
                   ("h-window-end", {"h_m_max": 4, "h_k_max": 8}))
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(main, name: str, argv: list, work: Path) -> list[str]:
    """Record lines of one CLI run in a fresh output directory; `validate`
    writes nothing and takes no `--out`."""
    out = work / name
    out.mkdir()
    if argv[0] != "validate":
        argv = argv + ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    lines = [f"{name} exit {code}",
             f"{name} stdout {_sha(stdout.getvalue().encode())}",
             f"{name} stderr {_sha(stderr.getvalue().encode())}"]
    lines += [f"{name} {p.name} {_sha(p.read_bytes())}"
              for p in sorted(out.iterdir())]
    return lines


def _arith_specs(seed: int) -> list[dict]:
    """The continued fractions of three `arith` rounds at one seed, drawn as
    `perfbench/workloads.py` draws them (after its warm-up draw)."""
    r = random.Random(seed)

    def spec(kind):
        if kind == "golden":
            return GOLDEN
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

    spec("periodic")
    return [spec(kind) for _ in range(3) for kind in ARITH_KINDS]


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    from circlelab.cli import main as cli_main

    configs = sorted((ROOT / "configs").glob("*.json"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def run(name, argv, cfg=None):
            if cfg is not None:
                path = work / f"{name}.cfg.json"
                path.write_text(json.dumps(cfg))
                argv = argv + ["--config", str(path)]
            for line in _run(cli_main, name, argv, work):
                print(line, flush=True)

        for c in configs:
            for cmd in SUBCOMMANDS:
                run(f"{cmd}:{c.stem}", [cmd, "--config", str(c)])
                run(f"validate-{cmd}:{c.stem}",
                    ["validate", cmd, "--config", str(c)])
        for name, args, cfg in EXTRA:
            run(name, args, cfg)

        digest = hashlib.sha256()
        targets = [json.loads(c.read_text()) for c in configs
                   if c.stem.startswith("classify")]
        targets += [{"target": t} for seed in range(1, 9)
                    for t in _arith_specs(seed)]
        for i, cfg in enumerate(targets):
            path, out = work / f"arith{i}.json", work / f"arith{i}"
            path.write_text(json.dumps(cfg))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(["classify", "--config", str(path),
                                 "--out", str(out)])
            digest.update(f"{code}\n".encode())
            for p in sorted(out.iterdir()):
                digest.update(p.read_bytes())
        print(f"classify-mix[{len(targets)}] {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
