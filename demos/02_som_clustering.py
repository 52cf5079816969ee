"""Training the self-organizing map used by every clustering step.

The map is a line of neurons holding weight vectors.  Each training input
is matched to its most similar neuron by cosine similarity and pulls that
neuron (and its neighbors, early on) toward itself.  Afterwards, inputs
mapping to the same neuron form a cluster.
"""

import numpy as np

from ctxrec.som import SomConfig, assign, mean_similarity, train


def main():
    rng = np.random.default_rng(42)

    # two planted groups of directions plus noise
    group_a = [np.array([5.0, 4.0, 0.0, 0.0]) + rng.normal(0, 0.3, 4) for _ in range(6)]
    group_b = [np.array([0.0, 0.0, 4.0, 5.0]) + rng.normal(0, 0.3, 4) for _ in range(6)]
    inputs = [np.abs(v) for v in group_a + group_b]

    cfg = SomConfig(neuron_count=2, epochs=50, alpha0=0.5, seed=0)
    net = train(inputs, cfg)
    print(f"trained {cfg.neuron_count} neurons on {len(inputs)} vectors "
          f"({cfg.epochs} epochs)")

    labels = assign(net, inputs)
    print(f"labels:   {labels}")
    print(f"planted:  {[0] * 6 + [1] * 6}  (any consistent relabeling is fine)")

    # best-matching unit = highest cosine similarity W @ x / (|W| |x|), ties
    # to the lowest index
    x = inputs[0]
    bmu = assign(net, [x])[0]
    w = net.weights
    sims = w @ x / (np.linalg.norm(w, axis=1) * np.linalg.norm(x))
    print(f"\nfirst input matches neuron {bmu}; similarities "
          f"{sims.round(3).tolist()}")

    # quality knob: how many neurons does this data want?
    print("\nmean similarity to own neuron, by neuron count:")
    for count in (1, 2, 3, 6):
        net_k = train(inputs, SomConfig(neuron_count=count, seed=0))
        score = mean_similarity(net_k, inputs)
        print(f"  {count} neurons: {score:.4f}")
    print("two planted directions -> the payoff arrives at 2 neurons")


if __name__ == "__main__":
    main()
