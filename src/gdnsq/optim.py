"""RAdam optimizer over one flat parameter vector.

RAdam follows the rectified-Adam recipe with beta1=0.9, beta2=0.999 and
eps=1e-8 (class constants of ``RAdam``) and no weight decay. While the
variance-rectification term rho_t <= 4 the step falls back to
bias-corrected SGD-with-momentum; once rho_t > 4 the adaptive step with
the rectification factor r_t is used.

``RAdam.step`` updates every parameter in one pass over one flat vector
(the multi-tensor idea of "foreach" optimizers). The parameters, their
gradients and the two moments are flat buffers the optimizer owns: at
construction each parameter's values are copied into the flat parameter
buffer ``data`` and its ``p.data`` is rebound to its view of it, and
``slots`` maps each parameter to its view of the gradient buffer, which
``tensor.backward`` writes into. A step checks the gradient buffer with
one isfinite call and runs each update expression once over the vector,
the moments and the parameters in place. Whoever sets a parameter after
that writes into its view (``p.data[...] = ...``, as
``models.Model.load_state_arrays`` does); a rebound ``p.data`` would no
longer be stepped. The expressions keep the per-parameter operator order
and every element is rounded on its own, so the result equals a
per-parameter update bit for bit (tests/reference_graphs.py keeps that
loop as the reference).

The optimizer's ``lr`` is whatever its owner sets before a step; the QAT
learning-rate policy lives with the rest of a run's state in
``pipeline.QatRun``.
"""

from __future__ import annotations

import math

import numpy as np

from .checkpoint import section
from .errors import ContractError, NumericError


class RAdam:
    """RAdam over named parameters, updated as one flat vector.

    Each parameter owns one contiguous segment of the flat parameter,
    gradient and moment buffers; ``p.data``, ``g[name]``, ``m[name]`` and
    ``v[name]`` are views of it, shaped like the parameter, and ``slots``
    maps the parameter tensor to its ``g`` view. ``step`` applies the
    gradients the buffer holds to ``data`` in place.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr):
        # params: iterable of (name, Tensor) with requires_grad set
        self.params = list(params)
        names, owner = set(), {}
        for name, p in self.params:
            if name in names:
                raise ContractError(f"duplicate parameter name {name!r}")
            if id(p) in owner:
                raise ContractError(
                    f"parameters {owner[id(p)]!r} and {name!r} are one tensor; "
                    "a flat update cannot step it twice")
            names.add(name)
            owner[id(p)] = name
        self.lr = float(lr)
        self.t = 0
        sizes = [p.data.size for _, p in self.params]
        bounds = np.cumsum([0] + sizes)
        self._spans = list(zip(bounds[:-1], bounds[1:]))
        self.data, views = self._flat_views()
        for name, p in self.params:
            views[name][...] = p.data
            p.data = views[name]
        self._g, self.g = self._flat_views()
        self._m, self.m = self._flat_views()
        self._v, self.v = self._flat_views()
        self.slots = {p: self.g[name] for name, p in self.params}

    def _flat_views(self):
        """A zeroed flat buffer and its per-name views, parameter-shaped."""
        flat = np.zeros(self._spans[-1][1] if self._spans else 0)
        return flat, {name: flat[a:b].reshape(p.data.shape)
                      for (name, p), (a, b) in zip(self.params, self._spans)}

    @property
    def rho_inf(self) -> float:
        return 2.0 / (1.0 - self.beta2) - 1.0

    def step(self):
        g = self._g
        if not np.all(np.isfinite(g)):
            for name, _ in self.params:
                if not np.all(np.isfinite(self.g[name])):
                    raise NumericError(f"non-finite gradient for {name!r}; "
                                       "step rejected")
        self.t += 1
        t = self.t
        b1, b2 = self.beta1, self.beta2
        b1t, b2t = b1 ** t, b2 ** t
        rho_inf = self.rho_inf
        rho_t = rho_inf - 2.0 * t * b2t / (1.0 - b2t)
        m, v = self._m, self._v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1t)
        data = self.data
        if rho_t > 4.0:
            r_t = math.sqrt(
                (rho_t - 4.0) * (rho_t - 2.0) * rho_inf
                / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
            )
            v_hat = np.sqrt(v / (1.0 - b2t))
            data -= self.lr * r_t * m_hat / (v_hat + self.eps)
        else:
            data -= self.lr * m_hat

    def _moments(self):
        """(section, view) of each moment; these and opt/t are the state."""
        for name, _ in self.params:
            yield f"opt/m/{name}", self.m[name]
            yield f"opt/v/{name}", self.v[name]

    def state_arrays(self):
        """The checkpoint sections of the step count and the moments."""
        return {"opt/t": np.asarray(self.t, dtype=np.int64),
                **dict(self._moments())}

    def load_state_arrays(self, arrays):
        """Read the sections state_arrays names into the step count and
        the moment buffers; FormatError names one that is missing or
        shaped unlike what it loads into."""
        self.t = int(section(arrays, "opt/t", ()))
        for key, held in self._moments():
            held[...] = section(arrays, key, held.shape)
