#!/usr/bin/env python3
"""D_pos(t) under optimized control of several localities vs simple quench.

Runs both model presets at one system size: a quench to (h, g) = (0, 1.5)
over t in [0, 10], plus greedy-optimized protocols for each requested k over
t in [0, 1]. Emits fig2_dpos_vs_t.csv under the output directory; the
shell-size column is the saturation reference.
"""

import argparse
from pathlib import Path

from eigenwork import runner
from eigenwork.config import ExperimentConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L", type=int, default=12)
    ap.add_argument("--k", type=int, nargs="+", default=[2, 4, 6],
                    help="control localities for the optimized runs")
    ap.add_argument("--outdir", default="runs/fig2")
    ap.add_argument("--long-run", action="store_true",
                    help="accept system sizes beyond the desk-scale cap")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    run_dirs = []
    for preset in ("nonintegrable", "integrable"):
        data = {"preset": preset, "L": args.L, "mode": "quench",
                "outdir": str(outdir / f"quench_{preset}"),
                "long_run": args.long_run}
        run_dirs.append(runner.run(ExperimentConfig.from_dict(data)))
        for k in args.k:
            data = {"preset": preset, "L": args.L, "mode": "optimize", "k": k,
                    "outdir": str(outdir / f"opt_{preset}_k{k}"),
                    "long_run": args.long_run}
            run_dirs.append(runner.run(ExperimentConfig.from_dict(data)))
            summary = runner.load_summary(run_dirs[-1])
            print(f"{preset} k={k}: D_pos(t=1) = {summary['dpos_final']}"
                  f" / shell {summary['shell']['size']}")

    runner.write_report(run_dirs, outdir)
    print(f"figure data under {outdir}")


if __name__ == "__main__":
    main()
