"""Learned offloading solver: a tiny two-head feedforward network.

Shared ReLU trunk, a softmax head over the 2^N joint decisions and a linear
regression head for the edge-CPU fractions (clamped to >= 0 and renormalized
when the sum exceeds 1).  Training is plain mini-batch Adam with hand-written
backpropagation in float64; models serialize as float32 to stay under the
2 KB budget for the default N=2 shape.
"""
from __future__ import annotations

import io
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FileFormatError, ShapeError, ValidationError
from .model import OffloadInstance, OffloadSolution, raw_features, total_cost
from .solvers import LabeledDataset, mask_to_decisions, optimal_allocation

MODEL_FILE_HEADER = b"mtl-model v1\n"
DEFAULT_HIDDEN = (12, 12)  # largest symmetric pair keeping the N=2 file <= 2048 B

N_GLOBAL_FEATURES = 4
PER_VEHICLE_FEATURES = 6


def feature_count(n_vehicles: int) -> int:
    return PER_VEHICLE_FEATURES * n_vehicles + N_GLOBAL_FEATURES


@dataclass
class MtlModel:
    """Trained weights plus the frozen normalization statistics."""

    n_vehicles: int
    hidden_sizes: tuple[int, ...]
    feature_mean: np.ndarray
    feature_std: np.ndarray
    trunk: list[tuple[np.ndarray, np.ndarray]]  # (W, b) per dense layer
    class_head: tuple[np.ndarray, np.ndarray]
    reg_head: tuple[np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        d = feature_count(self.n_vehicles)
        if self.feature_mean.shape != (d,) or self.feature_std.shape != (d,):
            raise ShapeError("normalization stats do not match the feature count")
        if np.any(self.feature_std <= 0.0):
            raise ValidationError("feature_std entries must be > 0")

    @property
    def n_classes(self) -> int:
        return 1 << self.n_vehicles

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in self.trunk:
            out.extend([w, b])
        out.extend([*self.class_head, *self.reg_head])
        return out


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
        if self.chi_c < 0 or self.chi_r < 0 or self.chi_c + self.chi_r <= 0:
            raise ConfigError("need chi_c, chi_r >= 0 and chi_c + chi_r > 0")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ConfigError("train_fraction must be in (0, 1]")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")


@dataclass(frozen=True)
class EvalMetrics:
    class_accuracy: float
    reg_mse: float
    mean_inference_time: float


# ---------------------------------------------------------------------------
# feature normalization
# ---------------------------------------------------------------------------

def featurize(inst: OffloadInstance, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Z-score-normalized flat feature vector of length 6N+4."""
    x = raw_features(inst)
    if mean.shape != x.shape or std.shape != x.shape:
        raise ShapeError(
            f"stats of length {mean.shape} do not match feature count {x.shape}"
        )
    return (x - mean) / std


def normalize(features: np.ndarray, model: MtlModel) -> np.ndarray:
    features = np.atleast_2d(features)
    if features.shape[1] != feature_count(model.n_vehicles):
        raise ShapeError(
            f"expected {feature_count(model.n_vehicles)} features, got {features.shape[1]}"
        )
    return (features - model.feature_mean) / model.feature_std


# ---------------------------------------------------------------------------
# forward / backward passes
# ---------------------------------------------------------------------------

def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _project_alloc(y: np.ndarray) -> np.ndarray:
    """Clamp to >= 0, renormalize rows whose sum exceeds 1."""
    r = np.maximum(y, 0.0)
    s = r.sum(axis=1, keepdims=True)
    return np.where(s > 1.0, r / np.where(s > 0.0, s, 1.0), r)


def _heads(
    model: MtlModel, x: np.ndarray, with_class: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Batched head outputs without the softmax: (class logits, alloc).

    ``with_class=False`` skips the classifier matmul for regression-only
    inference (the chi_c = 0 regime, where decisions come from the reg head).
    """
    h = x
    for w, b in model.trunk:
        h = np.maximum(h @ w + b, 0.0)
    wr, br = model.reg_head
    alloc = _project_alloc(h @ wr + br)
    if not with_class:
        return None, alloc
    wc, bc = model.class_head
    return h @ wc + bc, alloc


def _forward_cached(model: MtlModel, x: np.ndarray):
    acts = [x]
    h = x
    for w, b in model.trunk:
        h = np.maximum(h @ w + b, 0.0)
        acts.append(h)
    wc, bc = model.class_head
    wr, br = model.reg_head
    logits = h @ wc + bc
    probs = _softmax(logits)
    y = h @ wr + br
    alloc = _project_alloc(y)
    return probs, alloc, y, acts


def forward(model: MtlModel, features: np.ndarray):
    """Single feedforward pass: class probabilities and projected alloc vector."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[1] != feature_count(model.n_vehicles):
        raise ShapeError(
            f"expected {feature_count(model.n_vehicles)} features, got {x.shape[1]}"
        )
    probs, alloc, _, _ = _forward_cached(model, x)
    if features.ndim == 1:
        return probs[0], alloc[0]
    return probs, alloc


def loss_and_grads(
    model: MtlModel,
    x: np.ndarray,
    class_idx: np.ndarray,
    alloc_labels: np.ndarray,
    chi_c: float,
    chi_r: float,
):
    """Weighted-sum loss and gradients w.r.t. every parameter tensor.

    Returns (loss, ce_term, mse_term, grads) with grads ordered like
    ``model.params()``.
    """
    batch = x.shape[0]
    if batch == 0:
        raise ValidationError("empty batch")
    probs, alloc, y, acts = _forward_cached(model, x)
    h = acts[-1]

    rows = np.arange(batch)
    p_true = np.clip(probs[rows, class_idx], 1e-300, None)
    ce = float(-np.log(p_true).mean())
    n_out = alloc.shape[1]
    diff = alloc - alloc_labels
    mse = float((diff**2).mean())
    loss = chi_c * ce + chi_r * mse

    # classification head
    dlogits = probs.copy()
    dlogits[rows, class_idx] -= 1.0
    dlogits *= chi_c / batch

    # regression head, through the clamp/renormalize projection
    dalloc = diff * (2.0 * chi_r / (batch * n_out))
    r = np.maximum(y, 0.0)
    s = r.sum(axis=1, keepdims=True)
    renorm = (s > 1.0).astype(np.float64)
    safe_s = np.where(s > 0.0, s, 1.0)
    # rows with s > 1:   d alloc_i / d r_j = delta_ij/s - r_i/s^2
    dr_renorm = dalloc / safe_s - (dalloc * r).sum(axis=1, keepdims=True) / safe_s**2
    dr = renorm * dr_renorm + (1.0 - renorm) * dalloc
    dy = dr * (y > 0.0)

    wc, _ = model.class_head
    wr, _ = model.reg_head
    g_wc = h.T @ dlogits
    g_bc = dlogits.sum(axis=0)
    g_wr = h.T @ dy
    g_br = dy.sum(axis=0)

    dh = dlogits @ wc.T + dy @ wr.T
    trunk_grads: list[tuple[np.ndarray, np.ndarray]] = []
    for li in range(len(model.trunk) - 1, -1, -1):
        w, _ = model.trunk[li]
        pre_act = acts[li + 1]
        dz = dh * (pre_act > 0.0)
        trunk_grads.append((acts[li].T @ dz, dz.sum(axis=0)))
        dh = dz @ w.T
    trunk_grads.reverse()

    grads: list[np.ndarray] = []
    for gw, gb in trunk_grads:
        grads.extend([gw, gb])
    grads.extend([g_wc, g_bc, g_wr, g_br])
    return loss, ce, mse, grads


def loss(
    model: MtlModel,
    x: np.ndarray,
    class_idx: np.ndarray,
    alloc_labels: np.ndarray,
    chi_c: float,
    chi_r: float,
) -> float:
    value, _, _, _ = loss_and_grads(model, x, class_idx, alloc_labels, chi_c, chi_r)
    return value


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _init_model(
    n_vehicles: int,
    hidden_sizes: tuple[int, ...],
    mean: np.ndarray,
    std: np.ndarray,
    rng: np.random.Generator,
) -> MtlModel:
    sizes = [feature_count(n_vehicles), *hidden_sizes]
    trunk = []
    for d_in, d_out in zip(sizes[:-1], sizes[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out))
        # small positive bias keeps dead units off the exact ReLU kink
        trunk.append((w, np.full(d_out, 0.01)))
    h = sizes[-1]
    n_classes = 1 << n_vehicles
    wc = rng.normal(0.0, np.sqrt(1.0 / h), size=(h, n_classes))
    wr = rng.normal(0.0, np.sqrt(1.0 / h), size=(h, n_vehicles))
    # positive bias keeps the alloc clamp from starting in the dead region
    br = np.full(n_vehicles, 0.5 / n_vehicles)
    return MtlModel(
        n_vehicles=n_vehicles,
        hidden_sizes=tuple(hidden_sizes),
        feature_mean=mean,
        feature_std=std,
        trunk=trunk,
        class_head=(wc, np.zeros(n_classes)),
        reg_head=(wr, br),
    )


def split_dataset(
    ds: LabeledDataset, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the training split and the held-out remainder."""
    order = np.random.default_rng(seed).permutation(ds.n_samples)
    n_train = max(1, int(round(train_fraction * ds.n_samples)))
    return order[:n_train], order[n_train:]


def _flatten_params(model: MtlModel) -> np.ndarray:
    """Move every parameter tensor into one flat buffer, in ``model.params()``
    order; the model keeps views of it."""
    params = model.params()
    flat = np.concatenate([p.ravel() for p in params])
    bounds = np.cumsum([0] + [p.size for p in params]).tolist()
    views = iter(flat[a:b].reshape(p.shape) for p, a, b in zip(params, bounds, bounds[1:]))
    pairs = list(zip(views, views))  # (W, b) per layer
    model.trunk, model.class_head, model.reg_head = pairs[:-2], pairs[-2], pairs[-1]
    return flat


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
    with the mean total/ce/mse terms over that epoch's batches.
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
    model = _init_model(n, tuple(cfg.hidden_sizes), mean, std, rng)
    params = _flatten_params(model)
    grad = np.empty_like(params)
    m_state = np.zeros_like(params)
    v_state = np.zeros_like(params)
    work = np.empty_like(params)
    t = 0
    log: list[dict] = []
    n_train = x.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_train)
        tot = ce_sum = mse_sum = 0.0
        n_batches = 0
        for start in range(0, n_train, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            value, ce, mse, grads = loss_and_grads(
                model, x[idx], cls[idx], alloc[idx], cfg.chi_c, cfg.chi_r
            )
            if not np.isfinite(value):
                raise ValidationError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"step {n_batches} (ce={ce!r}, mse={mse!r})"
                )
            t += 1
            lr_t = cfg.learning_rate * (
                np.sqrt(1.0 - cfg.adam_beta2**t) / (1.0 - cfg.adam_beta1**t)
            )
            np.concatenate([g.ravel() for g in grads], out=grad)
            _adam_step(params, grad, m_state, v_state, work, lr_t, cfg)
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

def infer_solution(
    model: MtlModel, inst: OffloadInstance, decision_source: str = "class"
) -> OffloadSolution:
    """One feedforward pass mapped to a guaranteed-feasible solution.

    ``decision_source="reg"`` derives the offload set by thresholding the
    regression head instead of the classifier; used when the model was
    trained with chi_c = 0 and the classifier head is uninformative.
    """
    if inst.n_vehicles != model.n_vehicles:
        raise ShapeError(
            f"model is for N={model.n_vehicles}, instance has N={inst.n_vehicles}"
        )
    feats = featurize(inst, model.feature_mean, model.feature_std)
    probs, alloc_pred = forward(model, feats)
    n = model.n_vehicles
    if decision_source == "class":
        mask = int(np.argmax(probs))  # first hit on ties = lowest class index
    elif decision_source == "reg":
        mask = 0
        thresh = 0.5 / n
        for i in range(n):
            if alloc_pred[i] > thresh:
                mask |= 1 << (n - 1 - i)
    else:
        raise ConfigError(f"unknown decision_source {decision_source!r}")
    decisions = mask_to_decisions(mask, n)
    chosen = np.array(decisions, dtype=bool)
    masked = np.where(chosen, alloc_pred, 0.0)
    total = masked.sum()
    if chosen.any() and (total <= 0.0 or np.any(masked[chosen] <= 0.0)):
        alloc = optimal_allocation(inst, decisions)  # degenerate head output
    elif chosen.any():
        alloc = masked / total
    else:
        alloc = np.zeros(n)
    cost = total_cost(inst, decisions, alloc)
    return OffloadSolution(decisions=decisions, alloc=tuple(alloc), cost=cost)


def evaluate(
    model: MtlModel,
    ds: LabeledDataset,
    decision_source: str = "class",
    min_timed_passes: int = 1000,
) -> EvalMetrics:
    """Exact decision-match accuracy, alloc MSE and amortized inference time."""
    if ds.n_samples == 0:
        raise ValidationError("evaluation dataset is empty")
    x = normalize(ds.features, model)
    with_class = decision_source == "class"
    logits, alloc = _heads(model, x, with_class=with_class)
    if decision_source == "class":
        pred_mask = logits.argmax(axis=1)  # softmax is monotone, argmax suffices
    elif decision_source == "reg":
        n = model.n_vehicles
        bits = alloc > (0.5 / n)
        weights_col = 1 << np.arange(n - 1, -1, -1)
        pred_mask = (bits * weights_col).sum(axis=1)
    else:
        raise ConfigError(f"unknown decision_source {decision_source!r}")
    accuracy = float((pred_mask == ds.decision).mean())
    mse = float(((alloc - ds.alloc) ** 2).mean())

    reps = int(np.ceil(min_timed_passes / ds.n_samples))
    t0 = time.perf_counter()
    passes = 0
    for _ in range(reps):
        _heads(model, x, with_class=with_class)
        passes += ds.n_samples
    mean_time = (time.perf_counter() - t0) / passes
    return EvalMetrics(class_accuracy=accuracy, reg_mse=mse, mean_inference_time=mean_time)


def solver_metrics(reports, ds: LabeledDataset) -> EvalMetrics:
    """Score solver outputs against oracle labels with the same metrics."""
    from .solvers import decisions_to_mask

    masks = np.array([decisions_to_mask(r.solution.decisions) for r in reports])
    alloc = np.array([r.solution.alloc for r in reports])
    accuracy = float((masks == ds.decision).mean())
    mse = float(((alloc - ds.alloc) ** 2).mean())
    mean_time = float(np.mean([r.wall_time for r in reports]))
    return EvalMetrics(class_accuracy=accuracy, reg_mse=mse, mean_inference_time=mean_time)


# ---------------------------------------------------------------------------
# model file I/O (byte-exact round trip)
# ---------------------------------------------------------------------------

def _write_array(buf: io.BytesIO, arr: np.ndarray) -> None:
    buf.write(np.ascontiguousarray(arr, dtype=np.float32).tobytes())


def save_model_bytes(model: MtlModel) -> bytes:
    buf = io.BytesIO()
    buf.write(MODEL_FILE_HEADER)
    buf.write(struct.pack("<II", model.n_vehicles, len(model.hidden_sizes)))
    buf.write(struct.pack(f"<{len(model.hidden_sizes)}I", *model.hidden_sizes))
    _write_array(buf, model.feature_mean)
    _write_array(buf, model.feature_std)
    for w, b in model.trunk:
        _write_array(buf, w)
        _write_array(buf, b)
    for w, b in (model.class_head, model.reg_head):
        _write_array(buf, w)
        _write_array(buf, b)
    return buf.getvalue()


def load_model_bytes(data: bytes) -> MtlModel:
    if not data.startswith(MODEL_FILE_HEADER):
        raise FileFormatError("bad model file header")
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

    def read_array(shape: tuple[int, ...]) -> np.ndarray:
        count = int(np.prod(shape))
        arr = np.frombuffer(take(4 * count), dtype=np.float32)
        return arr.astype(np.float64).reshape(shape)

    d = feature_count(n)
    mean = read_array((d,))
    std = read_array((d,))
    sizes = [d, *hidden]
    trunk = []
    for d_in, d_out in zip(sizes[:-1], sizes[1:]):
        trunk.append((read_array((d_in, d_out)), read_array((d_out,))))
    h = sizes[-1]
    class_head = (read_array((h, 1 << n)), read_array(((1 << n),)))
    reg_head = (read_array((h, n)), read_array((n,)))
    if off != len(data):
        raise FileFormatError("trailing bytes in model file")
    return MtlModel(
        n_vehicles=n,
        hidden_sizes=tuple(int(s) for s in hidden),
        feature_mean=mean,
        feature_std=std,
        trunk=trunk,
        class_head=class_head,
        reg_head=reg_head,
    )


def save_model(path, model: MtlModel) -> None:
    with open(path, "wb") as fh:
        fh.write(save_model_bytes(model))


def load_model(path) -> MtlModel:
    with open(path, "rb") as fh:
        return load_model_bytes(fh.read())


def write_training_log(path, log: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss,ce_term,mse_term\n")
        for row in log:
            fh.write(
                f"{row['epoch']},{row['loss']!r},{row['ce_term']!r},{row['mse_term']!r}\n"
            )
