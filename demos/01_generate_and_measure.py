"""Generate a sparse noisy network and see what measurement error does.

Walks through the data-generating process: latent types, a graphon-driven
true adjacency, the Bernoulli observation, and the three centralities on
each side.
"""

import numpy as np

from centreg import (
    Graphon,
    build_true_adjacency,
    degree,
    diffusion,
    eigenvector_centrality,
    observe,
    sample_latent,
)

n = 300
p_n = n ** -0.5

# a two-block network: a tight minority block, a looser majority block
graphon = Graphon.sbm(pi=[0.3, 0.7], P=[[0.9, 0.3], [0.3, 0.3]])

u = sample_latent(n, seed=7)
a_true = build_true_adjacency(graphon, u, p_n)
a_hat = observe(a_true, seed=8)

print(f"n = {n}, p_n = {p_n:.4f}")
print(f"expected degree (true) : {a_true.row_sums().mean():.2f}")
print(f"observed mean degree   : {a_hat.row_sums().mean():.2f}")
print(f"observed edges         : {a_hat.n_edges}")

# centralities on the true and observed networks
for label, m in (("true", a_true), ("observed", a_hat)):
    deg = degree(m).values
    dif = diffusion(m, delta=0.5, T=2).values
    eig = eigenvector_centrality(m, scaling="sqrt-lambda1")
    print(f"\n{label} network:")
    print(f"  degree    top-5 nodes: {np.argsort(deg)[-5:][::-1]}")
    print(f"  diffusion top-5 nodes: {np.argsort(dif)[-5:][::-1]}")
    print(f"  eigvec    top-5 nodes: {np.argsort(eig.values)[-5:][::-1]}  (lambda1 = {eig.lambda1:.2f})")

# noise shuffles rankings at the margin, but the high-degree minority block
# keeps its lead; the degree correlation is the attenuation channel
rho = np.corrcoef(degree(a_true).values, degree(a_hat).values)[0, 1]
print(f"\ncorr(true degree, observed degree) = {rho:.3f}")

# a rank-2 graphon on the shifted Legendre basis, f(u, v) = 0.5 + 0.15 phi(u) phi(v)
# with phi(u) = sqrt(3) (2u - 1):
# every node has the same expected degree, but types on the same side of 1/2
# link more often.  A stays factored as n x 2 features and the draw thins a
# block sampler, so no n x n array is built; at this n a dense A and its
# Bernoulli draw would take 6.4 GB.
n_big = 20_000
p_big = n_big ** -0.5
rank2 = Graphon.rank_r([0.5, 0.15])
u_big = sample_latent(n_big, seed=9)
a_big = build_true_adjacency(rank2, u_big, p_big)
a_hat_big = observe(a_big, seed=10)
print(f"\nrank-2 graphon, n = {n_big}: {a_hat_big.n_edges} edges, expected {a_big.total() / 2:.0f}")
side = u_big.u > 0.5
i_big, j_big = a_hat_big.edge_arrays()
print(f"  share of edges within one side of 1/2: {np.mean(side[i_big] == side[j_big]):.3f} (0.6125 expected, 0.5 if f were constant)")
eig_big = eigenvector_centrality(a_big, scaling="sqrt-lambda1")
eig_hat_big = eigenvector_centrality(a_hat_big, scaling="sqrt-lambda1")
print(f"  lambda1 true {eig_big.lambda1:.2f}, observed {eig_hat_big.lambda1:.2f}")
