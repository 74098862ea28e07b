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
    cond = GPConditioner(hyper)
    for location in np.array(locations):
        cond.extend(location)
    v, h = cond.conditional_variance(x), cond.entropy(x)
    print(f"  given {len(cond)} sample locations: variance {v:.4f}, entropy {h:+.4f}")

# Joint entropy of a set = chain rule over conditionals; this is the set
# utility the selector maximizes.
points = np.array([[-1.0], [0.0], [1.5]])
print(f"joint entropy of 3 spread locations:   {entropy_criterion(points, hyper):.4f}")
print(f"joint entropy of 3 bunched locations:  "
      f"{entropy_criterion(np.array([[0.0], [0.05], [0.1]]), hyper):.4f}  (lower: redundant)")

# Diminishing returns: a location adds less entropy to a larger set.
f = UtilityFunction.entropy(hyper)
A = [Observation(0, np.array([-1.0]))]
B = [*A, Observation(1, np.array([0.5]))]
e = Observation(2, np.array([0.2]))
gain_A, gain_B = f.value([*A, e]) - f.value(A), f.value([*B, e]) - f.value(B)
print(f"gain of 0.2 given {{-1.0}}: {gain_A:.4f}; given {{-1.0, 0.5}}: {gain_B:.4f}  (smaller)")

# After the mission, the collected (location, value) pairs feed a standard
# GP posterior for prediction at unsampled locations.
train_x = np.array([[-1.0], [0.0], [1.5]])
train_y = np.array([0.3, 1.1, -0.4])
means, variances = predict_many(train_x, train_y, np.array([[0.7]]), hyper)
print(f"posterior at 0.7: mean {means[0]:+.4f}, variance {variances[0]:.4f}")
