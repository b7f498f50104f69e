#!/usr/bin/env python
"""Composite sharing policies: the Fig. 9 / Figs. 10-11 scenarios.

Shows how ThemisIO's single policy parameter composes sharing entities:
``user-then-size-fair`` splits I/O evenly across users and then
proportionally to node count within each user; the three-tier
``group-user-size-fair`` adds a group level on top. The second run
prints the Fig. 11-style hierarchy tree with each entity's achieved
percentage of the total throughput.

Run:  python examples/policy_composition.py
"""

from collections import defaultdict

from repro.harness import FIGURES, run_figure
from repro.units import fmt_bw

SCALE = 0.1


def print_tree(out) -> None:
    """Render the Fig. 11 tree: group -> user -> job percentages."""
    total = out["total"]
    by_group = defaultdict(lambda: defaultdict(list))
    for job_id, job in enumerate(out["jobs"], start=1):
        by_group[job["group"]][job["user"]].append(
            (job_id, job["nodes"], out["job_medians"][str(job_id)]))
    print(f"all jobs: {fmt_bw(total)} (100%)")
    for group in sorted(by_group):
        g_rate = out["group_totals"][group]
        print(f"  {group}: {fmt_bw(g_rate)} ({g_rate / total * 100:.0f}%)")
        for user in sorted(by_group[group]):
            u_rate = out["user_totals"][user]
            print(f"    {user}: {fmt_bw(u_rate)} "
                  f"({u_rate / total * 100:.0f}%)")
            for job_id, nodes, rate in by_group[group][user]:
                print(f"      job{job_id} ({nodes} nodes): {fmt_bw(rate)} "
                      f"({rate / total * 100:.0f}%)")


def main() -> None:
    print("=== user-then-size-fair (Fig. 9) ===")
    print("Two users; user 1 runs 1- and 2-node jobs, user 2 runs 4- and")
    print("6-node jobs. Users split evenly; jobs split 1:2 and 4:6.\n")
    print(FIGURES["fig09"].report(run_figure("fig09", scale=SCALE, seed=0)))

    print("\n=== group-user-size-fair (Figs. 10-11) ===")
    print("Two groups, four users, eight jobs; user 2's three jobs have")
    print("node counts 2:3:2.\n")
    (out10,) = run_figure("fig10", scale=SCALE, seed=0)
    print_tree(out10)


if __name__ == "__main__":
    main()
