"""Small dense network with hand-written backprop, plus Adam and a central
finite-difference gradient checker. Everything runs in float64 so the
finite-difference oracle stays tight."""

from __future__ import annotations

import numpy as np


class Mlp:
    """Fully connected net: tanh hidden layers, linear output."""

    def __init__(self, sizes: tuple[int, ...], rng: np.random.Generator,
                 zero_output: bool = False):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = tuple(int(s) for s in sizes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
            last = i == len(sizes) - 2
            if last and zero_output:
                w = np.zeros((n_in, n_out))
            else:
                w = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out))
            self.weights.append(w)
            self.biases.append(np.zeros(n_out))

    @property
    def num_params(self) -> int:
        return sum((n_in + 1) * n_out for n_in, n_out in zip(self.sizes, self.sizes[1:]))

    def scratch(self, rows: int) -> list[tuple]:
        """Arrays that `forward` and `backward` over `rows` rows can write
        instead of allocating: for each layer, its output and, except for
        layer 0, a view at the width of its input of one product buffer that
        all layers share, sized for the widest hidden layer. Backward turns
        each hidden output into the delta below it, so that buffer is the
        only one it adds."""
        width = max(self.sizes[1:-1], default=0)
        product = np.empty(rows * width)
        scratch: list[tuple] = [(np.empty((rows, self.sizes[1])), None)]
        for i, n in enumerate(self.sizes[1:-1], start=1):
            scratch.append((np.empty((rows, self.sizes[i + 1])),
                            product[: rows * n].reshape(rows, n)))
        return scratch

    def forward(self, x: np.ndarray, scratch: list[tuple] | None = None
                ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Returns (output, activations cache for backward) for the rows of x.
        Each layer's product goes to a new array, or to its `scratch` output
        when given, which the bias and tanh then update in place; x itself
        is never written."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        acts = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.matmul(h, w, out=None if scratch is None else scratch[i][0])
            h += b
            if i < last:
                np.tanh(h, out=h)
            acts.append(h)
        return h, acts

    def backward(
        self, acts: list[np.ndarray], grad_out: np.ndarray,
        scratch: list[tuple] | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Parameter gradients for a scalar loss with d(loss)/d(output) given,
        from the activations cache of `forward`. Each hidden layer's tanh
        derivative 1 - a*a (bit for bit 1 - a**2) is multiplied by the
        back-propagated product in place, once the layer's gradients have
        read its activation. Without `scratch` both are new arrays and
        nothing the caller passed is written. With it, the derivative of
        acts[i] goes to layer i-1's `scratch` output, where forward put
        acts[i], which then holds the next delta, and the product to the
        shared product buffer: backward overwrites the hidden activations
        there and leaves the cache's input and output alone."""
        grads_w = [np.empty(0)] * len(self.weights)
        grads_b = [np.empty(0)] * len(self.biases)
        delta = np.asarray(grad_out, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            grads_w[i] = acts[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                deriv_out, product_out = (None, None) if scratch is None else (
                    scratch[i - 1][0], scratch[i][1])
                deriv = np.multiply(acts[i], acts[i], out=deriv_out)
                np.subtract(1.0, deriv, out=deriv)
                deriv *= np.matmul(delta, self.weights[i].T, out=product_out)
                delta = deriv
        return grads_w, grads_b

    # -- flat parameter view (serialization, finite differences) ----------

    def params(self) -> list[np.ndarray]:
        """Live parameter arrays, interleaved (w0, b0, w1, b1, ...)."""
        return interleave(self.weights, self.biases)

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.reshape(-1) for p in self.params()])

    def set_flat(self, flat: np.ndarray) -> None:
        if flat.size != self.num_params:
            raise ValueError(f"expected {self.num_params} params, got {flat.size}")
        old = self.params()
        ends = np.cumsum([p.size for p in old])[:-1]
        new = [part.reshape(p.shape).copy() for part, p in zip(np.split(flat, ends), old)]
        self.weights, self.biases = new[::2], new[1::2]

    def flatten_grads(self, grads: tuple[list[np.ndarray], list[np.ndarray]]) -> np.ndarray:
        return np.concatenate([g.reshape(-1) for g in interleave(*grads)])

    def clone(self) -> "Mlp":
        twin = Mlp.__new__(Mlp)
        twin.sizes = self.sizes
        twin.weights = [w.copy() for w in self.weights]
        twin.biases = [b.copy() for b in self.biases]
        return twin


class Adam:
    """Bias-corrected Adam over a list of parameter arrays."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: list[np.ndarray] | None = None
        self.v: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def interleave(weights: list[np.ndarray], biases: list[np.ndarray]) -> list[np.ndarray]:
    """Per-layer arrays in the flat order (w0, b0, w1, b1, ...)."""
    return [a for pair in zip(weights, biases) for a in pair]


def polyak_update(target: Mlp, source: Mlp, tau: float) -> None:
    for tw, sw in zip(target.weights, source.weights):
        tw *= 1.0 - tau
        tw += tau * sw
    for tb, sb in zip(target.biases, source.biases):
        tb *= 1.0 - tau
        tb += tau * sb


def gradient_check(
    net: Mlp,
    loss_fn,
    rng: np.random.Generator,
    sample_fraction: float = 0.01,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn() -> (loss, (grads_w, grads_b)) evaluated at the net's current
    parameters; a random sample of parameters is probed.
    """
    _, grads = loss_fn()
    analytic = net.flatten_grads(grads)
    base = net.get_flat()
    n = base.size
    k = max(1, int(round(n * sample_fraction)))
    indices = rng.choice(n, size=min(k, n), replace=False)
    worst = 0.0
    try:
        for i in indices:
            probe = base.copy()
            probe[i] += step
            net.set_flat(probe)
            up = loss_fn()[0]
            probe[i] -= 2.0 * step
            net.set_flat(probe)
            down = loss_fn()[0]
            fd = (up - down) / (2.0 * step)
            denom = max(1e-6, abs(fd), abs(analytic[i]))
            worst = max(worst, abs(fd - analytic[i]) / denom)
    finally:
        net.set_flat(base)
    return worst


def scalar_gradient_check(value: float, loss_fn, step: float = 1e-5) -> float:
    """Same idea for a single scalar parameter: loss_fn(x) -> (loss, grad)."""
    _, analytic = loss_fn(value)
    up = loss_fn(value + step)[0]
    down = loss_fn(value - step)[0]
    fd = (up - down) / (2.0 * step)
    denom = max(1e-6, abs(fd), abs(analytic))
    return abs(fd - analytic) / denom
