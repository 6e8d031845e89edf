"""Learned offloading solver: a tiny two-head feedforward network.

Shared ReLU trunk, a softmax head over the 2^N joint decisions and a linear
regression head for the edge-CPU fractions (clamped to >= 0 and renormalized
when the sum exceeds 1); a ``chi_c = 0`` model holds no softmax head.
Training is plain mini-batch Adam with hand-written backpropagation in
float64; weights serialize as float32 to stay under the 2 KB budget for the
default N=2 shape.
"""
from __future__ import annotations

import functools
import math
import operator
import statistics
import struct
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, FileFormatError, ShapeError, ValidationError
from .kernels import CHUNK_BYTES
from .model import (MAX_VEHICLES, OffloadInstance, OffloadSolution, feature_count,
                    raw_features, total_cost, write_records)
from .solvers import LabeledDataset, _report_columns, mask_to_decisions, optimal_allocation

MODEL_FILE_HEADER = b"mtl-model v2\n"
DEFAULT_HIDDEN = (12, 12)  # largest symmetric pair keeping the N=2 file <= 2048 B
TIMED_REPEATS = 5  # seconds_per_item() takes the median of this many timed repeats
MIN_TIMED_PASSES = 1000  # and each repeat handles at least this many items
# weight of vehicle i's bit in a mask of N vehicles: the last N entries, 2^(N-1-i)
_MASK_BIT_WEIGHTS = 1 << np.arange(MAX_VEHICLES - 1, -1, -1)


def _param_shapes(
    n_vehicles: int, hidden_sizes: tuple[int, ...], has_class_head: bool
) -> list[tuple[int, ...]]:
    """Shape of every parameter tensor, in ``MtlModel.weights`` order:
    (W, b) per trunk layer, then the class head if held and the regression head."""
    sizes = [feature_count(n_vehicles), *hidden_sizes]
    trunk = [s for d_in, d_out in zip(sizes, sizes[1:]) for s in ((d_in, d_out), (d_out,))]
    h, n_classes = sizes[-1], 1 << n_vehicles
    head = [(h, n_classes), (n_classes,)] if has_class_head else []
    return [*trunk, *head, (h, n_vehicles), (n_vehicles,)]


@dataclass
class MtlModel:
    """Trained weights plus the frozen normalization statistics.

    ``weights`` is the model: every parameter in one flat float64 array, in
    ``_param_shapes`` order.  ``trunk`` (a (W, b) pair per dense layer),
    ``class_head`` and ``reg_head`` are views of it, bound at construction;
    ``class_head`` is ``None`` for a model without one.
    """

    n_vehicles: int
    hidden_sizes: tuple[int, ...]
    feature_mean: np.ndarray
    feature_std: np.ndarray
    weights: np.ndarray
    has_class_head: bool = True

    def __post_init__(self) -> None:
        d = feature_count(self.n_vehicles)
        if self.feature_mean.shape != (d,) or self.feature_std.shape != (d,):
            raise ShapeError("normalization stats do not match the feature count")
        if np.any(self.feature_std <= 0.0):
            raise ValidationError("feature_std entries must be > 0")
        shapes = _param_shapes(self.n_vehicles, self.hidden_sizes, self.has_class_head)
        bounds = np.cumsum([0] + [math.prod(s) for s in shapes]).tolist()
        if self.weights.shape != (bounds[-1],):
            raise ShapeError(f"expected {bounds[-1]} weights, got shape {self.weights.shape}")
        views = iter(self.weights[a:b].reshape(s) for s, a, b in zip(shapes, bounds, bounds[1:]))
        pairs = list(zip(views, views))  # (W, b) per layer
        self.trunk, self.reg_head = pairs[: len(self.hidden_sizes)], pairs[-1]
        self.class_head = pairs[-2] if self.has_class_head else None


@dataclass(frozen=True)
class TrainConfig:
    chi_c: float = 1.0  # classification-loss weight
    chi_r: float = 1.0  # regression-loss weight (alias: chi_l)
    epochs: int = 200
    batch_size: int = 128
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0
    train_fraction: float = 1.0
    hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN

    def __post_init__(self) -> None:
        for name in ("chi_c", "chi_r", "learning_rate", "adam_epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.chi_c < 0 or self.chi_r < 0 or self.chi_c + self.chi_r <= 0:
            raise ConfigError("need chi_c, chi_r >= 0 and chi_c + chi_r > 0")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ConfigError("train_fraction must be in (0, 1]")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if any(width < 1 for width in self.hidden_sizes):
            raise ConfigError(f"hidden_sizes entries must be >= 1, got {self.hidden_sizes!r}")
        if not (self.learning_rate > 0.0 and self.adam_epsilon > 0.0):
            raise ConfigError("learning_rate and adam_epsilon must be > 0, got "
                              f"{self.learning_rate!r} and {self.adam_epsilon!r}")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ConfigError("adam_beta1 and adam_beta2 must be in [0, 1), got "
                              f"{self.adam_beta1!r} and {self.adam_beta2!r}")


@dataclass(frozen=True)
class EvalMetrics:
    class_accuracy: float
    reg_mse: float


# ---------------------------------------------------------------------------
# feature normalization
# ---------------------------------------------------------------------------

def normalize(features: np.ndarray, model: MtlModel) -> np.ndarray:
    """Z-score-normalized feature rows, an (n, 6N+4) array."""
    if features.ndim != 2 or features.shape[1] != feature_count(model.n_vehicles):
        raise ShapeError(
            f"expected rows of {feature_count(model.n_vehicles)} features, got {features.shape}"
        )
    return (features - model.feature_mean) / model.feature_std


# ---------------------------------------------------------------------------
# forward / backward passes
# ---------------------------------------------------------------------------

def _class_head(model: MtlModel) -> tuple[np.ndarray, np.ndarray]:
    if model.class_head is None:
        raise ConfigError("the model has no class head (it was trained with chi_c = 0); "
                          "decide by its regression head, decision_source 'reg'")
    return model.class_head


def _project_alloc(y: np.ndarray) -> np.ndarray:
    """Clamp to >= 0, renormalize rows whose sum exceeds 1."""
    r = np.maximum(y, 0.0)
    s = r.sum(axis=1, keepdims=True)
    return np.divide(r, s, out=r, where=s > 1.0)


def forward(model: MtlModel, x: np.ndarray):
    """One feedforward pass over normalized rows ``x`` of shape (n, 6N+4).

    Returns ``(acts, y, alloc)``: ``x`` and every trunk activation, the
    regression head before projection, and the projected alloc.  The class
    head reads ``acts[-1]``.  Biases and ReLUs apply in place: a new array
    per step outcosts the matmuls.
    """
    acts = [x]
    for w, b in model.trunk:
        h = acts[-1] @ w
        acts.append(np.maximum(np.add(h, b, out=h), 0.0, out=h))
    wr, br = model.reg_head
    y = acts[-1] @ wr
    y += br
    return acts, y, _project_alloc(y)


def loss_and_grads(
    model: MtlModel,
    x: np.ndarray,
    class_idx: np.ndarray,
    alloc_labels: np.ndarray,
    chi_c: float,
    chi_r: float,
    grad: MtlModel,
):
    """Weighted-sum loss, with its gradient w.r.t. ``model.weights`` written
    in place into ``grad.weights`` (``grad`` is a model of the same shape).

    Returns (loss, ce_term, mse_term).  The class head takes part only when
    ``chi_c != 0``; at ``chi_c == 0`` ``ce_term`` is nan (not computed) and
    ``grad.class_head``, if the model holds one, is left as it was passed in.
    """
    batch = x.shape[0]
    if batch == 0:
        raise ValidationError("empty batch")
    acts, y, alloc = forward(model, x)
    h = acts[-1]
    n_out = alloc.shape[1]
    diff = alloc - alloc_labels
    # ndarray.mean's sum and division, without its Python wrapper
    mse = float(np.add.reduce(diff**2, axis=None)) / diff.size

    # regression head, through the clamp/renormalize projection
    dalloc = diff * (2.0 * chi_r / (batch * n_out))
    r = np.maximum(y, 0.0)
    s = r.sum(axis=1, keepdims=True)
    safe_s = np.where(s > 0.0, s, 1.0)
    # rows with s > 1:   d alloc_i / d r_j = delta_ij/s - r_i/s^2
    dr_renorm = dalloc / safe_s - (dalloc * r).sum(axis=1, keepdims=True) / safe_s**2
    dy = np.where(s > 1.0, dr_renorm, dalloc) * (y > 0.0)

    (wr, _), (g_wr, g_br) = model.reg_head, grad.reg_head
    np.matmul(h.T, dy, out=g_wr)
    dy.sum(axis=0, out=g_br)
    dh = dy @ wr.T

    if chi_c == 0.0:
        ce, loss = math.nan, chi_r * mse
    else:
        wc, bc = _class_head(model)
        logits = h @ wc + bc
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        esum = e.sum(axis=1, keepdims=True)
        rows = np.arange(batch)
        # the softmax probability of each row's label, without the full division
        p_true = np.maximum(e[rows, class_idx] / esum[:, 0], 1e-300)
        ce = -float(np.add.reduce(np.log(p_true))) / batch
        loss = chi_c * ce + chi_r * mse
        dlogits = e / esum
        dlogits[rows, class_idx] -= 1.0
        dlogits *= chi_c / batch
        g_wc, g_bc = grad.class_head
        np.matmul(h.T, dlogits, out=g_wc)
        dlogits.sum(axis=0, out=g_bc)
        dh = dlogits @ wc.T + dh

    for li in range(len(model.trunk) - 1, -1, -1):
        dz = dh * (acts[li + 1] > 0.0)
        g_w, g_b = grad.trunk[li]
        np.matmul(acts[li].T, dz, out=g_w)
        dz.sum(axis=0, out=g_b)
        if li:  # the input layer's dh would go unread
            dh = dz @ model.trunk[li][0].T
    return loss, ce, mse


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _init_model(
    n_vehicles: int,
    hidden_sizes: tuple[int, ...],
    mean: np.ndarray,
    std: np.ndarray,
    rng: np.random.Generator,
    has_class_head: bool = True,
) -> MtlModel:
    n_weights = sum(math.prod(s) for s in _param_shapes(n_vehicles, hidden_sizes, has_class_head))
    model = MtlModel(n_vehicles, hidden_sizes, mean, std, np.zeros(n_weights), has_class_head)
    for w, b in model.trunk:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)
        # small positive bias keeps dead units off the exact ReLU kink
        b[...] = 0.01
    # the class head is drawn also when it is not kept, so wr gets the same normals
    wr, br = model.reg_head
    h, rows = wr.shape[0], max(1, CHUNK_BYTES // (8 << n_vehicles))
    for i in range(0, h, rows):
        block = rng.normal(0.0, np.sqrt(1.0 / h), size=(min(rows, h - i), 1 << n_vehicles))
        if has_class_head:
            model.class_head[0][i : i + rows] = block
    wr[...] = rng.normal(0.0, np.sqrt(1.0 / wr.shape[0]), size=wr.shape)
    # positive bias keeps the alloc clamp from starting in the dead region
    br[...] = 0.5 / n_vehicles
    return model


def split_dataset(
    ds: LabeledDataset, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the training split and the held-out remainder."""
    order = np.random.default_rng(seed).permutation(ds.n_samples)
    n_train = max(1, int(round(train_fraction * ds.n_samples)))
    return order[:n_train], order[n_train:]


def _adam_step(p, g, m, v, work, lr_t, cfg: TrainConfig) -> None:
    """One Adam update of the flat buffers in place.

    Elementwise, with the operations and their order of the per-tensor
    update ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
    p -= lr_t*m / (sqrt(v) + eps)``, so every value matches it bit for bit.
    """
    m *= cfg.adam_beta1
    np.multiply(g, 1.0 - cfg.adam_beta1, out=work)
    m += work
    v *= cfg.adam_beta2
    np.square(g, out=work)
    work *= 1.0 - cfg.adam_beta2
    v += work
    np.sqrt(v, out=work)
    work += cfg.adam_epsilon
    np.divide(np.multiply(m, lr_t, out=g), work, out=work)
    p -= work


def train(ds: LabeledDataset, cfg: TrainConfig) -> tuple[MtlModel, list[dict]]:
    """Mini-batch Adam on the weighted cross-entropy + MSE loss.

    Deterministic in ``cfg.seed``; the returned log has one entry per epoch
    with the mean total/ce/mse terms over that epoch's batches.  At
    ``chi_c == 0`` the returned model has no class head.
    """
    if ds.n_samples == 0:
        raise ValidationError("training dataset is empty")
    n = ds.n_vehicles
    train_idx, _ = split_dataset(ds, cfg.train_fraction, cfg.seed)
    x_raw = ds.features[train_idx]
    mean = x_raw.mean(axis=0)
    std = x_raw.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    x = (x_raw - mean) / std
    cls = ds.decision[train_idx]
    alloc = ds.alloc[train_idx]

    rng = np.random.default_rng(cfg.seed + 1)
    model = _init_model(n, tuple(cfg.hidden_sizes), mean, std, rng, cfg.chi_c != 0.0)
    grad = replace(model, weights=np.zeros_like(model.weights))  # views in its layout
    m_state, v_state, work = (np.zeros_like(model.weights) for _ in range(3))
    t = 0
    log: list[dict] = []
    n_train = x.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_train)
        tot = ce_sum = mse_sum = 0.0
        n_batches = 0
        for start in range(0, n_train, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            value, ce, mse = loss_and_grads(
                model, x[idx], cls[idx], alloc[idx], cfg.chi_c, cfg.chi_r, grad
            )
            if not math.isfinite(value):
                raise ValidationError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"step {n_batches} (ce={ce!r}, mse={mse!r})"
                )
            t += 1
            lr_t = cfg.learning_rate * (
                math.sqrt(1.0 - cfg.adam_beta2**t) / (1.0 - cfg.adam_beta1**t)
            )
            _adam_step(model.weights, grad.weights, m_state, v_state, work, lr_t, cfg)
            tot += value
            ce_sum += ce
            mse_sum += mse
            n_batches += 1
        log.append(
            {
                "epoch": epoch,
                "loss": tot / n_batches,
                "ce_term": ce_sum / n_batches,
                "mse_term": mse_sum / n_batches,
            }
        )
    return model, log


# ---------------------------------------------------------------------------
# inference and evaluation
# ---------------------------------------------------------------------------

def _decide(
    model: MtlModel, x: np.ndarray, decision_source: str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Offload masks and projected allocs for normalized rows ``x``.

    ``"class"`` takes the classifier's argmax (softmax is monotone, and the
    first hit on ties is the lowest mask), with the 2^N-wide logits made in
    row blocks of at most ``CHUNK_BYTES``; ``"reg"`` offloads vehicle i when
    its regression output exceeds 0.5/N; ``None`` picks the class head if the
    model holds one.  Mask bit N-1-i is vehicle i.
    """
    if decision_source is None:
        decision_source = "reg" if model.class_head is None else "class"
    if decision_source not in ("class", "reg"):
        raise ConfigError(f"unknown decision_source {decision_source!r}")
    acts, _, alloc = forward(model, x)
    n = model.n_vehicles
    if decision_source == "reg":
        return (alloc > 0.5 / n) @ _MASK_BIT_WEIGHTS[MAX_VEHICLES - n :], alloc
    h, (wc, bc) = acts[-1], _class_head(model)
    rows = max(1, CHUNK_BYTES // (8 << n))
    masks = np.empty(len(h), dtype=np.intp)
    for i in range(0, len(h), rows):
        masks[i : i + rows] = (h[i : i + rows] @ wc + bc).argmax(axis=1)
    return masks, alloc


def infer_solution(
    model: MtlModel, inst: OffloadInstance, decision_source: str | None = None
) -> OffloadSolution:
    """One feedforward pass mapped to a guaranteed-feasible solution.

    The offload set comes from the model's own head unless
    ``decision_source`` names one (see ``_decide``), of which this is the
    one-row case.  The offloaders get their projected shares over the
    shares' sum (added left to right), or the closed-form ``optimal_allocation``
    when one of those shares is not > 0; the mapping runs on Python floats.
    """
    if inst.n_vehicles != model.n_vehicles:
        raise ShapeError(
            f"model is for N={model.n_vehicles}, instance has N={inst.n_vehicles}"
        )
    masks, alloc_pred = _decide(model, normalize(raw_features(inst)[None], model),
                                decision_source)
    decisions = mask_to_decisions(int(masks[0]), model.n_vehicles)
    shares = np.where(decisions, alloc_pred[0], 0.0).tolist()
    total = functools.reduce(operator.add, shares)  # a local vehicle's 0.0 changes no sum
    if not any(decisions):
        alloc = shares  # every share is 0.0
    elif total <= 0.0 or any(a <= 0.0 for a, d in zip(shares, decisions) if d):
        alloc = optimal_allocation(inst, decisions).tolist()  # degenerate head output
    else:
        alloc = [a / total for a in shares]
    return OffloadSolution(decisions, tuple(alloc), total_cost(inst, decisions, alloc))


def _score(masks: np.ndarray, alloc: np.ndarray, ds: LabeledDataset) -> EvalMetrics:
    """Exact mask match and alloc MSE against the labels."""
    return EvalMetrics(class_accuracy=float((masks == ds.decision).mean()),
                       reg_mse=float(((alloc - ds.alloc) ** 2).mean()))


def evaluate(model: MtlModel, ds: LabeledDataset) -> EvalMetrics:
    """Exact decision-match accuracy and alloc MSE, decided by the model's own head."""
    if ds.n_samples == 0:
        raise ValidationError("evaluation dataset is empty")
    return _score(*_decide(model, normalize(ds.features, model)), ds)


def solver_metrics(reports, ds: LabeledDataset) -> EvalMetrics:
    """Score solver outputs against oracle labels with the same metrics."""
    return _score(*_report_columns(reports)[:2], ds)


def seconds_per_item(run, n_items: int) -> float:
    """Wall time per item of ``run()``, one pass over ``n_items`` items: the
    median of ``TIMED_REPEATS`` separately timed repeats, each of
    ceil(``MIN_TIMED_PASSES`` / n_items) calls, so one host stall does not set it."""
    if n_items < 1:
        raise ValidationError("nothing to time: n_items must be >= 1")
    reps = math.ceil(MIN_TIMED_PASSES / n_items)
    repeat_seconds = []
    for _ in range(TIMED_REPEATS):
        t0 = time.perf_counter()
        for _ in range(reps):
            run()
        repeat_seconds.append(time.perf_counter() - t0)
    return statistics.median(repeat_seconds) / (reps * n_items)


def decision_seconds(model: MtlModel, ds: LabeledDataset) -> float:
    """``seconds_per_item`` of one batched ``_decide`` pass over ``ds``'s rows."""
    x = normalize(ds.features, model)
    return seconds_per_item(lambda: _decide(model, x), ds.n_samples)


# ---------------------------------------------------------------------------
# model file I/O (byte-exact round trip)
# ---------------------------------------------------------------------------

def save_model_bytes(model: MtlModel) -> bytes:
    """The header, ``<II`` N and layer count, the layer widths, the ``<I``
    class-head flag, then float64 mean and std and float32 weights."""
    hidden = model.hidden_sizes
    sizes = struct.pack(f"<II{len(hidden)}II", model.n_vehicles, len(hidden), *hidden,
                        model.has_class_head)
    stats = np.concatenate([model.feature_mean, model.feature_std]).astype("<f8")
    return MODEL_FILE_HEADER + sizes + stats.tobytes() + model.weights.astype("<f4").tobytes()


def load_model_bytes(data: bytes) -> MtlModel:
    if not data.startswith(MODEL_FILE_HEADER):
        raise FileFormatError("mtl-model v1 file: its float32 feature mean and std misnormalize "
                              "the inputs; retrain the model" if data.startswith(b"mtl-model v1\n")
                              else "bad model file header")
    off = len(MODEL_FILE_HEADER)

    def take(count: int) -> bytes:
        nonlocal off
        chunk = data[off : off + count]
        if len(chunk) != count:
            raise FileFormatError("truncated model file")
        off += count
        return chunk

    n, n_hidden = struct.unpack("<II", take(8))
    hidden = struct.unpack(f"<{n_hidden}I", take(4 * n_hidden))
    (flag,) = struct.unpack("<I", take(4))
    # checked before the layout is built: it may hold 2^N-wide tensors
    if not 1 <= n <= MAX_VEHICLES or 0 in hidden or flag > 1:
        raise FileFormatError(f"model file sizes out of range: N={n}, layer widths {hidden}, "
                              f"class-head flag {flag}")
    d = feature_count(n)
    n_weights = sum(math.prod(s) for s in _param_shapes(n, hidden, bool(flag)))
    stats = np.frombuffer(take(8 * 2 * d), dtype="<f8").astype(np.float64)
    weights = np.frombuffer(take(4 * n_weights), dtype="<f4").astype(np.float64)
    if off != len(data):
        raise FileFormatError("trailing bytes in model file")
    if not (np.isfinite(stats).all() and np.isfinite(weights).all()):
        raise FileFormatError("non-finite float in model file")
    if np.any(stats[d:] <= 0.0):
        raise FileFormatError("model file has a feature_std entry <= 0")
    return MtlModel(n, hidden, stats[:d], stats[d:], weights, bool(flag))


def save_model(path, model: MtlModel) -> None:
    with open(path, "wb") as fh:
        fh.write(save_model_bytes(model))


def load_model(path) -> MtlModel:
    with open(path, "rb") as fh:
        return load_model_bytes(fh.read())


def write_training_log(path, log: list[dict]) -> None:
    write_records(path, "epoch,loss,ce_term,mse_term", (
        f"{row['epoch']},{row['loss']!r},{row['ce_term']!r},{row['mse_term']!r}" for row in log
    ))
