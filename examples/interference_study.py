#!/usr/bin/env python
"""Application interference study: the Fig. 1 / Fig. 13 scenario in miniature.

Runs the NAMD application model three ways — exclusive, against a
background I/O job under FIFO, and against the same background job under
ThemisIO's size-fair policy — and reports the slowdowns. The size-fair
slowdown stays near the node-count bound (1 background node against a
64-node job -> at most ~1.5%), while FIFO interference is an order of
magnitude worse.

Run:  python examples/interference_study.py   (~30 s)
"""

from repro.harness.experiments import app_cell
from repro.harness.report import pct
from repro.workloads import NAMD


def main() -> None:
    print(f"Application: {NAMD.name} ({NAMD.nodes} nodes, "
          f"{NAMD.steps} steps, trajectory burst every {NAMD.io_every})")
    print("Background: one node of 4 MB write/read cycles\n")

    def run(policy: str, background: bool) -> float:
        return app_cell({"app": NAMD.name, "policy": policy,
                         "background": background})["time_to_solution"]

    baseline = run("fifo", background=False)
    print(f"exclusive access        : {baseline:6.2f} s")

    fifo = run("fifo", background=True)
    print(f"FIFO + background       : {fifo:6.2f} s   "
          f"({pct(fifo / baseline - 1)})")

    fair = run("size-fair", background=True)
    print(f"size-fair + background  : {fair:6.2f} s   "
          f"({pct(fair / baseline - 1)})")

    bound = 1.0 / (NAMD.nodes + 1)
    reduction = (fifo - fair) / (fifo - baseline) if fifo > baseline else 0.0
    print(f"\nmax slowdown bound for size-fair: {pct(bound)} "
          f"(background share of nodes)")
    print(f"size-fair removed {pct(reduction, signed=False)} of the "
          f"FIFO-induced slowdown")


if __name__ == "__main__":
    main()
