"""Fig. 14 — λ-delayed global fairness.

Paper rows: with files pinned to disjoint servers, ThemisIO reaches
global fairness by the second interval for λ ∈ {50, 200, 500} ms and in
five intervals at λ = 10 ms (below the ~50 ms server-processing
boundary); shorter intervals produce higher variance in the allocated
shares.
"""

from repro.harness import FIGURES, run_figure

LAMBDAS = (0.010, 0.050, 0.200, 0.500)


def test_fig14_lambda():
    out = run_figure("fig14", lambdas=LAMBDAS, seed=0)
    print("\n" + FIGURES["fig14"].report(out))
    convergence = {r["lam"]: r["intervals_to_fairness"] for r in out}
    # Every interval length eventually reaches global fairness.
    assert all(conv is not None for conv in convergence.values()), \
        convergence
    # λ >= 50 ms converges within a couple of intervals.
    for lam in (0.050, 0.200, 0.500):
        assert convergence[lam] <= 2, (lam, convergence[lam])
    # λ = 10 ms needs strictly more intervals (processing-bound).
    assert convergence[0.010] > convergence[0.050]
    # Shorter λ -> higher share variance: clearly so at the short end,
    # monotone within the sampling-noise floor across the sweep.
    variances = [r["share_variance"] for r in out]
    assert variances[0] > 3 * variances[-1]
    for earlier, later in zip(variances, variances[1:]):
        assert later <= earlier + 5e-5, variances
