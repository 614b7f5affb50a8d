#!/usr/bin/env python3
"""System-size scaling of D_pos(t=1) for local (fixed k) and global (k=L/2) control.

Produces fig3_scaling.csv for both presets. Desk-scale defaults stop at L=12;
L=14 is reachable directly and L=16 only with --long-run (hours).

dt is the greedy controller's update interval, a parameter of the protocol,
not an integration step: each row is exponentiated to machine precision. The
optional --dt-check reruns the largest local-control case with that interval
halved and reports how far the final work densities and D_pos move.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from eigenwork import runner
from eigenwork.config import ExperimentConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L-list", type=int, nargs="+", default=[8, 10, 12])
    ap.add_argument("--k-fixed", type=int, default=4)
    ap.add_argument("--outdir", default="runs/fig3")
    ap.add_argument("--long-run", action="store_true")
    ap.add_argument("--dt-check", action="store_true",
                    help="rerun the largest local case with the update interval "
                         "dt halved; report the shift in final w and D_pos")
    args = ap.parse_args()

    template = {"long_run": args.long_run}
    outdir = Path(args.outdir)
    for rule, sub in (("fixed", "local"), ("half", "global")):
        t = dict(template)
        if rule == "fixed":
            t["k"] = args.k_fixed
        rows = runner.run_scaling_sweep(t, args.L_list, rule,
                                        outdir=str(outdir / sub))
        for row in rows:
            print(sub, row)

    if args.dt_check:
        L = max(args.L_list)
        w_final, dpos = {}, {}
        for dt in (0.002, 0.001):
            data = {"preset": "integrable", "L": L, "mode": "optimize",
                    "k": args.k_fixed, "dt": dt, "long_run": args.long_run,
                    "outdir": str(outdir / f"dtcheck_{dt:g}")}
            run_dir = runner.run(ExperimentConfig.from_dict(data))
            summary, traj = runner.load_run(run_dir)
            w_final[dt] = traj.final_w()
            dpos[dt] = summary["dpos_final"]
        # greedy protocols are not smooth in dt, so per-state w can move while
        # the headline count stays put; report both.
        report = {"L": L, "k": args.k_fixed,
                  "max_final_w_shift": float(np.abs(w_final[0.002] - w_final[0.001]).max()),
                  "d_pos": {str(dt): dpos[dt] for dt in dpos}}
        (outdir / "convergence.json").write_text(json.dumps(report, indent=2) + "\n")
        print(f"dt-halving: max final-w shift {report['max_final_w_shift']:.3e}, "
              f"D_pos {dpos[0.002]} -> {dpos[0.001]} (convergence.json)")


if __name__ == "__main__":
    main()
