"""The parameter half of the estimator protocol, shared by every model.

Each estimator names its constructor parameters in ``get_params()``;
:meth:`Estimator.set_params` is the one way to change them after
construction, for cloning and grid search alike.
"""

from __future__ import annotations

__all__ = ["Estimator"]


class Estimator:
    """Mixin giving every estimator the same :meth:`set_params`."""

    def set_params(self, **params):
        """Update constructor parameters in place; returns self.

        Only ``get_params()`` names are accepted, so fitted state such as
        ``estimators_`` cannot be overwritten, and the merged parameters
        pass the constructor's checks before any of them is set.
        """
        current = self.get_params()
        for key in params:
            if key not in current:
                raise ValueError(f"unknown parameter {key!r}")
        checked = type(self)(**{**current, **params})
        for key in params:
            setattr(self, key, getattr(checked, key))
        return self
