"""A small feed-forward neural network regressor.

The paper's §5 lists "impact on complex models" as future work:
"investigate the impact of diversity on more complex models and deep
learning architectures, determining whether this diversity is beneficial
or introduces unnecessary noise". This module provides that complex
model: a fully-connected ReLU network trained with Adam on mini-batches,
implemented on plain numpy and following the same estimator protocol as
the tree ensembles — so it drops straight into the improvement study
(``ImprovementConfig(model="mlp")``) and the extension bench.

Inputs and targets are standardised internally (networks, unlike trees,
are scale-sensitive), and predictions are mapped back to target units.
"""

from __future__ import annotations

import numpy as np

from .base import Estimator, check_features, check_xy

__all__ = ["MLPRegressor"]


class MLPRegressor(Estimator):
    """Feed-forward ReLU regressor trained with Adam.

    Parameters
    ----------
    hidden_layer_sizes:
        Width of each hidden layer, e.g. ``(64, 32)``.
    learning_rate:
        Adam step size.
    n_epochs:
        Full passes over the training data.
    batch_size:
        Mini-batch size (clipped to the dataset size).
    l2:
        L2 weight penalty.
    random_state:
        Seed for weight init and batch shuffling.
    """

    def __init__(
        self,
        hidden_layer_sizes: tuple = (64, 32),
        learning_rate: float = 1e-3,
        n_epochs: int = 200,
        batch_size: int = 64,
        l2: float = 1e-4,
        random_state=None,
    ):
        if not hidden_layer_sizes:
            raise ValueError("need at least one hidden layer")
        if any(int(h) < 1 for h in hidden_layer_sizes):
            raise ValueError("hidden layer widths must be >= 1")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if l2 < 0:
            raise ValueError("l2 must be >= 0")
        self.hidden_layer_sizes = tuple(int(h) for h in hidden_layer_sizes)
        self.learning_rate = learning_rate
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.random_state = random_state
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []
        self._x_mean = self._x_scale = None
        self._y_mean = self._y_scale = None
        self.n_features_in_: int | None = None
        self.train_losses_: list[float] = []

    # ------------------------------------------------------------------
    def get_params(self) -> dict:
        """Constructor parameters (the clone/grid-search protocol)."""
        return {
            "hidden_layer_sizes": self.hidden_layer_sizes,
            "learning_rate": self.learning_rate,
            "n_epochs": self.n_epochs,
            "batch_size": self.batch_size,
            "l2": self.l2,
            "random_state": self.random_state,
        }

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "MLPRegressor":
        """Fit the estimator on (X, y); returns self."""
        X, y = check_xy(X, y)
        n_samples, n_features = X.shape
        self.n_features_in_ = n_features
        rng = np.random.default_rng(self.random_state)

        # standardise
        self._x_mean = X.mean(axis=0)
        self._x_scale = X.std(axis=0)
        self._x_scale[self._x_scale == 0.0] = 1.0
        self._y_mean = float(y.mean())
        self._y_scale = float(y.std()) or 1.0
        Xs = (X - self._x_mean) / self._x_scale
        ys = (y - self._y_mean) / self._y_scale

        # He initialisation
        sizes = [n_features, *self.hidden_layer_sizes, 1]
        self._weights = [
            rng.normal(0.0, np.sqrt(2.0 / sizes[i]),
                       size=(sizes[i], sizes[i + 1]))
            for i in range(len(sizes) - 1)
        ]
        self._biases = [np.zeros(sizes[i + 1])
                        for i in range(len(sizes) - 1)]

        # Adam state
        m_w = [np.zeros_like(w) for w in self._weights]
        v_w = [np.zeros_like(w) for w in self._weights]
        m_b = [np.zeros_like(b) for b in self._biases]
        v_b = [np.zeros_like(b) for b in self._biases]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        batch = min(self.batch_size, n_samples)
        self.train_losses_ = []
        for _ in range(self.n_epochs):
            order = rng.permutation(n_samples)
            epoch_loss = 0.0
            for start in range(0, n_samples, batch):
                rows = order[start:start + batch]
                xb, yb = Xs[rows], ys[rows]
                # forward
                activations = [xb]
                pre = []
                h = xb
                for w, b in zip(self._weights[:-1], self._biases[:-1]):
                    z = h @ w + b
                    pre.append(z)
                    h = np.maximum(z, 0.0)
                    activations.append(h)
                out = (h @ self._weights[-1] + self._biases[-1]).ravel()
                err = out - yb
                epoch_loss += float(err @ err)
                # backward
                grad = (2.0 / rows.size) * err[:, None]
                grads_w = []
                grads_b = []
                delta = grad
                for layer in range(len(self._weights) - 1, -1, -1):
                    a_prev = activations[layer]
                    grads_w.append(
                        a_prev.T @ delta + self.l2 * self._weights[layer]
                    )
                    grads_b.append(delta.sum(axis=0))
                    if layer > 0:
                        delta = delta @ self._weights[layer].T
                        delta = delta * (pre[layer - 1] > 0.0)
                grads_w.reverse()
                grads_b.reverse()
                # Adam update
                step += 1
                correction1 = 1.0 - beta1**step
                correction2 = 1.0 - beta2**step
                for i in range(len(self._weights)):
                    m_w[i] = beta1 * m_w[i] + (1 - beta1) * grads_w[i]
                    v_w[i] = beta2 * v_w[i] + (1 - beta2) * grads_w[i] ** 2
                    m_b[i] = beta1 * m_b[i] + (1 - beta1) * grads_b[i]
                    v_b[i] = beta2 * v_b[i] + (1 - beta2) * grads_b[i] ** 2
                    self._weights[i] -= self.learning_rate * (
                        (m_w[i] / correction1)
                        / (np.sqrt(v_w[i] / correction2) + eps)
                    )
                    self._biases[i] -= self.learning_rate * (
                        (m_b[i] / correction1)
                        / (np.sqrt(v_b[i] / correction2) + eps)
                    )
            self.train_losses_.append(epoch_loss / n_samples)
        return self

    def predict(self, X) -> np.ndarray:
        """Predict targets for every row of X."""
        if not self._weights:
            raise RuntimeError("estimator is not fitted; call fit() first")
        X = check_features(X, self.n_features_in_)
        h = (X - self._x_mean) / self._x_scale
        for w, b in zip(self._weights[:-1], self._biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
        out = (h @ self._weights[-1] + self._biases[-1]).ravel()
        return out * self._y_scale + self._y_mean
