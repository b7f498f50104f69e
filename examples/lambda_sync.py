#!/usr/bin/env python
"""λ-delayed global fairness (§3.1, §5.6): the Fig. 5 scenario, measured.

Three size-fair jobs (16, 8, 8 nodes) write to files pinned to disjoint
servers, so each server initially sees only part of the job population
and allocates unfair tokens (job 1 gets 2/3 locally instead of its
global 1/2). Every λ the controllers all-gather their job status tables
and re-solve the placement-constrained token assignment; the example
prints job 1's observed share per interval for two λ values.

Run:  python examples/lambda_sync.py   (~20 s)
"""

from repro.harness import FIGURES, run_figure


def main() -> None:
    lambdas = (0.010, 0.200)
    print("Fair split: job1 (16 nodes) = 50%, jobs 2 and 3 (8 nodes) = 25%")
    print("Files are pinned so servers start with disjoint local views.\n")

    rows = run_figure("fig14", lambdas=lambdas, seed=0)
    print(FIGURES["fig14"].report(rows))
    print()
    for row in rows:
        conv = row["intervals_to_fairness"]
        status = ("did not converge" if conv is None
                  else f"globally fair from interval {conv}")
        print(f"lambda = {row['lam'] * 1000:4.0f} ms: {status}; "
              f"steady-state share variance {row['share_variance']:.5f}")
    print("\nShorter intervals converge in more (shorter) intervals and "
          "show higher share variance — §5.6's observation.")


if __name__ == "__main__":
    main()
