"""Label relation networks: directed conditional-probability graphs.

Edge a -> b carries P(b|a), estimated either from binary annotations or
from predicted probabilities.  Node positions come from a Kamada-Kawai
stress minimization where strongly related labels sit close together;
the DOT export pins those positions and widens edges by probability.
"""

import numpy as np

from labelcal import (
    LabelMatrix,
    ProbMatrix,
    export_dot,
    kamada_kawai_layout,
    network_from_annotations,
    network_from_probabilities,
)

rng = np.random.default_rng(0)
names = ("craft", "market", "prestige", "funding", "criticism", "education")

# correlated annotations: two thematic groups plus one bridge label
base = rng.random((800, 2))
y = np.zeros((800, 6), dtype=int)
y[:, 0] = base[:, 0] < 0.5                    # craft
y[:, 1] = (base[:, 0] < 0.4) | (rng.random(800) < 0.05)   # market, tied to craft
y[:, 2] = base[:, 1] < 0.3                    # prestige
y[:, 3] = (base[:, 1] < 0.25) | (rng.random(800) < 0.03)  # funding, tied to prestige
y[:, 4] = rng.random(800) < 0.2               # criticism, independent
y[:, 5] = ((base[:, 0] + base[:, 1]) < 0.6) | (rng.random(800) < 0.02)  # bridge

truth = LabelMatrix(names, y)
net = network_from_annotations(truth)
print("conditional probabilities P(column | row) from the annotations:")
print("          " + "".join(f"{n[:8]:>10}" for n in names))
for a, row_name in enumerate(names):
    cells = "".join(f"{net.weights[a, b]:>10.2f}" for b in range(6))
    print(f"{row_name:>10}{cells}")

print("\nstrongest directed relations (excluding self-loops):")
pairs = [
    (net.weights[a, b], names[a], names[b])
    for a in range(6) for b in range(6) if a != b
]
for w, a, b in sorted(pairs, reverse=True)[:5]:
    print(f"  P({b} | {a}) = {w:.2f}")

layout = kamada_kawai_layout(net)
print(f"\nKamada-Kawai layout stress: {layout.stress:.4f}")
for name, (x, y_) in zip(names, layout.positions):
    print(f"  {name:>10}: ({x:+.2f}, {y_:+.2f})")

# the probability-based estimator agrees on hard annotations and also
# accepts calibrated ensemble probabilities
net_p = network_from_probabilities(ProbMatrix(names, truth.values.astype(float)))
assert np.allclose(np.nan_to_num(net_p.weights), np.nan_to_num(net.weights))

dot = export_dot(net, layout, min_weight=0.4)
print(f"\nDOT export ({dot.count('->')} edges at min weight 0.4):\n")
print(dot)
