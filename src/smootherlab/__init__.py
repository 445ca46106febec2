"""smootherlab: regression models as smoothers, and what that measures.

Linear fits, best-first trees, boosted trees and k-nearest-neighbor models
all expose the weight vector s(x0) with f(x0) = s(x0) . y_train through one
protocol (n_train, weight_matrix, predict, train_predictions); generalized
effective-parameter counts built from those weights make interpolation-driven
double descent and its classical U-shaped cross sections measurable on the
same axis.
"""

__version__ = "0.1.0"
