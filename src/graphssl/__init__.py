"""Graph-based semi-supervised learning with sparse spectral regularization.

Classification propagates a handful of labels over a k-NN affinity graph.
Two regularizers are provided: the classical quadratic Laplacian penalty,
solved in closed form, and a weighted-L1 penalty over the coefficients of
the smallest Laplacian eigenvectors, solved exactly by a per-coefficient
soft threshold because the eigenvectors are orthonormal. The L1 route is
robust to mislabeled points and also powers a co-refinement pipeline for
paired bag-of-words matrices.
"""

__version__ = "0.1.0"
