"""GP entropy machinery: the engine behind the information-driven selector.

The key property exploited throughout: the conditional variance of a GP at a
location depends only on WHERE samples were taken, never on the values
observed there. That is what lets a selector score candidate samples in real
time even though the quantity of interest is only measured in the lab later.
"""

import numpy as np

from periodic_secretary import (
    GPConditioner,
    GPHyperparams,
    Observation,
    UtilityFunction,
    check_submodular_monotone,
    entropy_criterion,
    predict_many,
)

hyper = GPHyperparams(lengthscales=np.array([1.0]), signal_variance=1.0, noise_variance=0.1)
x = np.array([0.0])

print(f"prior variance (signal + noise): {hyper.prior_variance}")
print(f"prior entropy at any location:   {GPConditioner(hyper).entropy(x):.6f}")

# Conditioning on nearby locations shrinks variance and entropy; values of
# the quantity of interest never enter.
for locations in ([[2.0]], [[2.0], [0.5]], [[2.0], [0.5], [-0.2]]):
    cond = GPConditioner.from_points(np.array(locations), hyper)
    v, h = cond.conditional_variance(x), cond.entropy(x)
    print(f"  given {len(cond)} sample locations: variance {v:.4f}, entropy {h:+.4f}")

# Joint entropy of a set = chain rule over conditionals; this is the set
# utility the selector maximizes.
points = np.array([[-1.0], [0.0], [1.5]])
print(f"joint entropy of 3 spread locations:   {entropy_criterion(points, hyper):.4f}")
print(f"joint entropy of 3 bunched locations:  "
      f"{entropy_criterion(np.array([[0.0], [0.05], [0.1]]), hyper):.4f}  (lower: redundant)")

# Diminishing returns, verified exhaustively on a small ground set.
rng = np.random.default_rng(0)
ground = [Observation(i, rng.normal(size=1)) for i in range(6)]
report = check_submodular_monotone(UtilityFunction.entropy(hyper), ground)
print(f"entropy utility is submodular: {report.submodular}, monotone: {report.monotone}")

# After the mission, the collected (location, value) pairs feed a standard
# GP posterior for prediction at unsampled locations.
train_x = np.array([[-1.0], [0.0], [1.5]])
train_y = np.array([0.3, 1.1, -0.4])
means, variances = predict_many(train_x, train_y, np.array([[0.7]]), hyper)
print(f"posterior at 0.7: mean {means[0]:+.4f}, variance {variances[0]:.4f}")
