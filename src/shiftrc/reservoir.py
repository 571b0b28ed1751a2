"""Reservoir simulation back-ends.

Two reservoirs produce a state matrix from a scalar drive: a leaky-tanh
recurrent network iterated as a map, and a time-multiplexed opto-electronic
delay oscillator whose virtual nodes are samples of a single delayed
feedback loop. The oscillator's low-pass filter is ``lfilter``'s compiled
kernel, ``_linear_filter`` of the ``scipy.signal._sigtools`` extension,
loaded by :mod:`shiftrc._kernels` without importing ``scipy.signal``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from ._kernels import load_scipy_extension
from .errors import DivergenceError

_linear_filter = load_scipy_extension("scipy.signal._sigtools")._linear_filter


@dataclass
class StateMatrix:
    """Node time series of a single-config run, one row per input step after
    the washout, one column per node: slice 0 of the batch of one. Batched
    runs return a plain array; a single run keeps this wrapper because the
    checks in ``perfbench/`` read its ``values``."""

    values: np.ndarray


def _batch(cfgs, kind, drive, washout: int):
    """``(cfgs, drive)`` of the arguments of the runner of config class
    ``kind``: ``cfgs`` as a list of draws of one operating point, all of
    ``kind`` and equal in ``m`` and in every field that is not an array, and
    ``drive`` as a 1-D float array longer than ``washout``."""
    cfgs = [cfgs] if is_dataclass(cfgs) else list(cfgs)
    if not cfgs:
        raise ValueError("need at least one config")
    if not all(isinstance(c, kind) for c in cfgs):
        raise ValueError(f"configs of a batch must be of one kind, {kind.__name__}")
    first = cfgs[0]
    for name in ["m"] + [f.name for f in fields(first) if np.ndim(getattr(first, f.name)) == 0]:
        if any(getattr(c, name) != getattr(first, name) for c in cfgs[1:]):
            raise ValueError(f"configs of a batch must have equal {name}")
    drive = np.asarray(drive, dtype=float)
    if drive.ndim != 1:
        raise ValueError("drive must be 1-D")
    if drive.shape[0] <= washout:
        raise ValueError(f"drive length {drive.shape[0]} must exceed washout {washout}")
    return cfgs, drive


def _divergence(bad, step0: int, what: str) -> DivergenceError:
    """The error for the first true entry of ``bad``, non-finite states by
    ``(member, step)`` from step ``step0``: its step and member."""
    k = int(np.argmax(bad.any(axis=0)))
    member = int(np.argmax(bad[:, k]))
    return DivergenceError(step0 + k, f"{what} of config {member}")


def generate_input_weights(m: int, f_w: float, rng_seed: int) -> np.ndarray:
    """Sparse input weights: a length-m vector with ``round(f_w * m)``
    entries uniform in [-1, 1] at positions chosen without replacement, the
    rest zero. The tanh reservoir's ``w_in`` and the delay reservoir's mask
    are both this draw.
    """
    if not 0.0 < f_w <= 1.0:
        raise ValueError(f"f_w must be in (0, 1], got {f_w}")
    n_nonzero = round(f_w * m)
    if n_nonzero == 0:
        raise ValueError(
            f"round(f_w * m) = 0 for f_w={f_w}, m={m}; the reservoir would "
            "receive no input"
        )
    rng = np.random.default_rng(rng_seed)
    values = np.zeros(m)
    positions = rng.choice(m, size=n_nonzero, replace=False)
    values[positions] = rng.uniform(-1.0, 1.0, size=n_nonzero)
    return values


def generate_adjacency(
    m: int,
    f_a: float,
    spectral_radius: float,
    rng_seed: int,
) -> np.ndarray:
    """Random sparse adjacency with a prescribed spectral radius.

    Off-diagonal entries are uniform in [-1, 1] with a fraction ``f_a``
    nonzero and the diagonal zero; any all-zero row gets one extra entry so
    every node receives at least one input, and the matrix is rescaled so
    its spectral radius equals the request. Every node having an input
    makes the pattern contain a cycle, whose product is a term of the
    characteristic polynomial, so a zero spectral radius has probability
    zero.

    Raises:
        ValueError: the draw had spectral radius zero.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if not 0.0 < f_a <= 1.0:
        raise ValueError(f"f_a must be in (0, 1], got {f_a}")
    if spectral_radius <= 0.0:
        raise ValueError(f"spectral_radius must be positive, got {spectral_radius}")
    rng = np.random.default_rng(rng_seed)
    n_offdiag = m * (m - 1)
    n_nonzero = round(f_a * n_offdiag)
    a = np.zeros((m, m))
    flat = rng.choice(n_offdiag, size=n_nonzero, replace=False)
    rows = flat // (m - 1)
    rem = flat % (m - 1)
    cols = np.where(rem < rows, rem, rem + 1)
    a[rows, cols] = rng.uniform(-1.0, 1.0, size=n_nonzero)
    for i in np.nonzero(~a.any(axis=1))[0]:
        j = int(rng.integers(m - 1))
        j = j if j < i else j + 1
        a[i, j] = rng.uniform(-1.0, 1.0)
    rho = float(np.max(np.abs(np.linalg.eigvals(a))))
    if rho == 0.0:
        raise ValueError("spectral radius of the sparse draw is zero")
    return a * (spectral_radius / rho)


@dataclass
class TanhReservoirConfig:
    """Leaky-tanh recurrent network: leak rate, adjacency and input weights."""

    alpha: float
    a: np.ndarray
    w_in: np.ndarray

    def __post_init__(self):
        self.w_in = np.asarray(self.w_in, dtype=float)
        if self.w_in.ndim != 1 or self.w_in.size == 0:
            raise ValueError(f"w_in must be a non-empty vector, got shape {self.w_in.shape}")
        self.a = np.asarray(self.a, dtype=float)
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.a.shape != (self.m, self.m):
            raise ValueError(f"adjacency shape {self.a.shape} does not fit {self.m} nodes")
        if np.any(np.diag(self.a) != 0.0):
            raise ValueError("adjacency diagonal must be zero")

    @property
    def m(self) -> int:
        return len(self.w_in)


def make_tanh_config(
    m: int = 50,
    alpha: float = 0.35,
    f_a: float = 0.5,
    f_w: float = 1.0,
    spectral_radius: float = 0.5,
    *,
    adjacency_seed: int,
    input_seed: int,
) -> TanhReservoirConfig:
    """Generate a random tanh reservoir with the default operating point."""
    a = generate_adjacency(m, f_a, spectral_radius, adjacency_seed)
    w_in = generate_input_weights(m, f_w, input_seed)
    return TanhReservoirConfig(alpha=alpha, a=a, w_in=w_in)


def run_tanh_reservoir(
    cfg: TanhReservoirConfig | Sequence[TanhReservoirConfig],
    drive,
    washout: int,
    initial_state=None,
) -> StateMatrix | np.ndarray:
    """Iterate the leaky-tanh map over a drive sequence.

    chi <- (1 - alpha) chi + alpha tanh(A chi + w_in s + 1), starting from
    zero (or ``initial_state``). One row is kept per drive step, and the
    rows from ``washout`` on are returned as a view of that buffer. The +1
    bias inside the tanh is part of the node model.

    ``cfg`` is a sequence of draws of one operating point (equal ``m`` and
    ``alpha``; adjacencies and input weights differ), driven by one
    ``drive``. They advance together, one stacked product
    ``np.matmul(A_stack, chi)`` per step, from ``initial_state`` of one row
    per config, into one ``(n_configs, rows, m)`` array. A single config is
    the batch of one, returned as a ``StateMatrix``; each slice of a batch
    is bitwise equal to its config's own run. A run split into pieces, each
    started from the previous piece's last row with no washout, gives the
    same states bitwise as one run.

    Raises:
        DivergenceError: a state became non-finite; ``step`` is the first
            drive index, washout included, at which a member did, and the
            message names it (``config 0`` for a single config).
    """
    if isinstance(cfg, TanhReservoirConfig):
        return StateMatrix(run_tanh_reservoir(
            [cfg], drive, washout, None if initial_state is None else [initial_state])[0])
    cfgs, drive = _batch(cfg, TanhReservoirConfig, drive, washout)
    m, n, b = cfgs[0].m, drive.shape[0], len(cfgs)
    chi = np.zeros((b, m)) if initial_state is None else np.array(initial_state, dtype=float)
    if chi.shape != (b, m):
        raise ValueError(f"initial_state shape {chi.shape} != {(b, m)}")
    a = np.stack([c.a for c in cfgs])
    w_in = np.stack([c.w_in for c in cfgs])
    alpha = float(cfgs[0].alpha)
    keep = 1.0 - alpha
    product = np.empty((b, m, 1))
    net = product[:, :, 0]
    out = np.empty((b, n, m))
    for i, s in enumerate(drive):
        # The update formula, evaluated in place in the same order.
        np.matmul(a, chi[:, :, None], out=product)
        net += w_in * s
        net += 1.0
        np.tanh(net, out=net)
        net *= alpha
        chi *= keep
        chi += net
        out[:, i] = chi
    bad = ~np.isfinite(out).all(axis=2)
    if bad.any():
        raise _divergence(bad, 0, "tanh reservoir state")
    return out[:, washout:]


@dataclass
class OEOConfig:
    """Opto-electronic delay oscillator with time-multiplexed virtual nodes.

    The feedback loop is a low-pass filter (time constant ``4 * theta``)
    driven by a sin^2 nonlinearity of the state delayed by ``m * theta``;
    the mask weights the drive over node intervals of ``theta`` integration
    steps. ``sample_offset`` picks the step inside each node interval at
    which the node state is read (default: the interval's last step).
    """

    mask: np.ndarray
    theta: int
    beta: float
    phi: float
    rho: float
    sample_offset: int | None = None

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=float)
        if self.mask.ndim != 1 or self.mask.size == 0:
            raise ValueError(f"mask must be a non-empty vector, got shape {self.mask.shape}")
        if not np.all(np.abs(self.mask) <= 1.0):
            raise ValueError("mask entries must lie in [-1, 1]")
        for name in ("beta", "phi", "rho"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.theta < 1 or self.theta != int(self.theta):
            raise ValueError(f"theta must be a positive integer, got {self.theta}")
        self.theta = int(self.theta)
        if self.sample_offset is not None and not 1 <= self.sample_offset <= self.theta:
            raise ValueError(
                f"sample_offset must be in 1..{self.theta}, got {self.sample_offset}"
            )

    @property
    def m(self) -> int:
        return len(self.mask)

    @property
    def tau_l(self) -> int:
        return 4 * self.theta

    @property
    def tau_d(self) -> int:
        return self.m * self.theta


def make_oeo_config(
    m: int = 10,
    theta: int = 40,
    beta: float = 0.8,
    phi: float = 0.2,
    rho: float = 0.4,
    f_w: float = 0.4,
    sample_offset: int | None = None,
    *,
    mask_seed: int,
) -> OEOConfig:
    """Generate a delay-oscillator reservoir; ``m`` and ``f_w`` draw its mask."""
    mask = generate_input_weights(m, f_w, mask_seed)
    return OEOConfig(mask=mask, theta=theta, beta=beta, phi=phi, rho=rho,
                     sample_offset=sample_offset)


# The reservoir kinds, each with the seed role of every keyword-only seed
# parameter of its factory make_{kind}_config.
SEED_ROLES = {"oeo": {"mask_seed": "mask"},
              "tanh": {"adjacency_seed": "adjacency", "input_seed": "input-weights"}}


# Input steps per chunk of the oscillator loop: its forcing, finiteness
# check and node sampling run once per chunk.
OEO_CHUNK = 64


def run_oeo_reservoir(
    cfg: OEOConfig | Sequence[OEOConfig],
    drive,
    washout: int,
    v0: float = 0.0,
) -> StateMatrix | np.ndarray:
    """Integrate the delay oscillator and sample its virtual nodes.

    The delay equation tau_L v' = -v + beta sin^2(v(t - tau_d) + phi +
    rho M(t) s(t)) is advanced with Heun's method at unit step, one mask
    period per input sample, from zero delay history. Because the
    nonlinearity involves only the delayed state, the two-stage Heun update
    collapses to a linear recurrence v[t+1] = a v[t] + c1 F[t] + c2 F[t+1]
    within each delay period, which is evaluated period-by-period with an
    IIR filter; the arithmetic is the exact Heun update, regrouped.

    Node j of input step n is v at step n*tau_d + j*theta + sample_offset.
    One row is kept per input step, and the rows from ``washout`` on are
    returned as a view of that buffer.

    ``cfg`` is a sequence of draws of one operating point (equal ``m``,
    ``theta``, ``beta``, ``phi``, ``rho`` and ``sample_offset``; masks
    differ), driven by one ``drive``. They advance together, one
    ``(n_configs, tau_d + 1)`` forcing block and one IIR filter call per
    input step, into one ``(n_configs, rows, m)`` array. A single config is
    the batch of one, returned as a ``StateMatrix``; each slice of a batch
    is bitwise equal to its config's own run. The loop runs in chunks of
    ``OEO_CHUNK`` input steps: each chunk's drive forcing is computed at
    once, its delay periods (and the one before) are held, and it is
    checked for non-finite states and sampled at its end.

    Raises:
        DivergenceError: a state became non-finite; ``step`` is the first
            integration step (``n * tau_d + k``) at which a member did, and
            the message names it (``config 0`` for a single config).
    """
    if isinstance(cfg, OEOConfig):
        return StateMatrix(run_oeo_reservoir([cfg], drive, washout, v0)[0])
    cfgs, drive = _batch(cfg, OEOConfig, drive, washout)
    first, n_in = cfgs[0], drive.shape[0]
    m, theta, tau_d = first.m, first.theta, first.tau_d
    tau_l = float(first.tau_l)

    # Heun coefficients for v' = (-v + F(t)) / tau_L at unit step.
    a = 1.0 - 1.0 / tau_l + 1.0 / (2.0 * tau_l * tau_l)
    c1 = (1.0 / (2.0 * tau_l)) * (1.0 - 1.0 / tau_l)
    c2 = 1.0 / (2.0 * tau_l)
    denom = np.array([1.0, -a])
    numer = np.array([1.0])

    b = len(cfgs)
    beta, phi, rho = float(first.beta), float(first.phi), float(first.rho)
    mask = np.stack([c.mask for c in cfgs])
    mask_period = np.repeat(mask, theta, axis=1)[:, None, :]
    rho_drive = rho * drive
    # The last forcing entry of a period reads the next input sample (the
    # last sample again at the end of the drive) at the first mask entry.
    edge = np.concatenate([rho_drive[1:], rho_drive[-1:]]) * mask[:, :1]
    offset = first.sample_offset if first.sample_offset is not None else theta

    # For the chunk that starts at input step n0, v[:, k] = v(n0*tau_d -
    # tau_d + k): the delay period before the chunk, then its periods.
    # Step n0 + j reads periods[j] as its history (its last entry is the
    # state the step starts from) and writes the rest of periods[j + 1].
    v = np.zeros((b, (OEO_CHUNK + 1) * tau_d + 1))
    v[:, tau_d] = float(v0)
    periods = [v[:, j * tau_d : (j + 1) * tau_d + 1] for j in range(OEO_CHUNK + 1)]
    starts = [p[:, -1:] for p in periods]
    segs = [p[:, 1:] for p in periods]
    # The drive part of the forcing argument, rho*s*mask + phi, per chunk.
    driven = np.empty((b, OEO_CHUNK, tau_d + 1))
    # The update formula, evaluated in place in the same order.
    forcing = np.empty((b, tau_d + 1))
    f_now, f_next = forcing[:, :-1], forcing[:, 1:]
    rhs = np.empty((b, tau_d))
    late = np.empty((b, tau_d))
    zi = np.empty((b, 1))
    out = np.empty((b, n_in, m))
    for n0 in range(0, n_in, OEO_CHUNK):
        size = min(OEO_CHUNK, n_in - n0)
        part = driven[:, :size]
        np.multiply(rho_drive[n0 : n0 + size, None], mask_period, out=part[:, :, :tau_d])
        part[:, :, tau_d] = edge[:, n0 : n0 + size]
        part += phi
        for j in range(size):
            np.add(part[:, j], periods[j], out=forcing)
            np.sin(forcing, out=forcing)
            np.square(forcing, out=forcing)
            forcing *= beta
            np.multiply(f_now, c1, out=rhs)
            np.multiply(f_next, c2, out=late)
            rhs += late
            np.multiply(starts[j], a, out=zi)
            # lfilter's compiled kernel, called without lfilter's per-call
            # argument handling; tests pin it bitwise to lfilter.
            seg, _ = _linear_filter(numer, denom, rhs, -1, zi)
            segs[j + 1][...] = seg
        # A non-finite state stays non-finite, so the first one lies in the
        # first period that ends non-finite.
        finite = np.isfinite(v[:, 2 * tau_d : (size + 1) * tau_d + 1 : tau_d])
        if not finite.all():
            j = int(np.argmax(~finite.all(axis=0)))
            raise _divergence(~np.isfinite(periods[j + 1]), (n0 + j) * tau_d,
                              "delay oscillator state")
        # node i of step n0 + j is v at (n0 + j)*tau_d + i*theta + offset
        nodes = v[:, tau_d + 1 : (size + 1) * tau_d + 1]
        out[:, n0 : n0 + size] = nodes.reshape(b, size, m, theta)[:, :, :, offset - 1]
        v[:, : tau_d + 1] = periods[size]
    return out[:, washout:]
