"""Regenerate the pre-tuned parameters of the `linearize` workload.

    python3 perfbench/make_inputs.py

Tunes every map listed in MAPS to its target at tol 1e-11 with
circlelab's tune_parameter and writes perfbench/linearize_inputs.json.
Tuning is measured by the `tune` workload; `linearize` starts from these
parameters.  Takes about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TOL = 1e-11

# Every map must reach the 'linearized' verdict: the KAM acceptance criteria
# 3 and 9 expect it of the four Arnold maps, and the degree-2 map (the
# higher-degree case) reaches it with a defect of 4e-13.
MAPS = (
    {"name": "arnold_b0.05_golden", "b": 0.05, "period": [1]},
    {"name": "arnold_b0.3_golden", "b": 0.3, "period": [1]},
    {"name": "arnold_b0.05_sqrt2", "b": 0.05, "period": [2]},
    {"name": "arnold_b0.3_sqrt2", "b": 0.3, "period": [2]},
    {"name": "degree2_golden", "coeffs": [[0.0, -0.006], [0.002, 0.001]],
     "period": [1]},
)


def build_family(spec):
    import circlelab as cl
    if "b" in spec:
        return cl.ArnoldFamily(spec["b"])
    coeffs = [complex(re, im) for re, im in spec["coeffs"]]
    return cl.AffineShiftFamily(cl.AnalyticCircleMap(0.0, coeffs))


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import circlelab as cl
    maps = []
    for spec in MAPS:
        target = cl.ContinuedFraction.periodic(spec["period"])
        a, _ = cl.tune_parameter(build_family(spec), target, tol=TOL)
        maps.append({**spec, "a": float(a)})
        print(f"{spec['name']}: a = {float(a)!r}", file=sys.stderr)
    write(maps)
    return 0


def write(maps):
    """One map per line, so a regeneration diffs map by map."""
    rows = ",\n".join("  " + json.dumps(m) for m in maps)
    (HERE / "linearize_inputs.json").write_text(
        f'{{"tune_tol": {TOL!r}, "maps": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    sys.exit(main())
