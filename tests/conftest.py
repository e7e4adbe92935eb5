"""Shared fixtures: a synthetic CSV in the expected schema and the locator
for the real dataset (optional; those tests skip with a warning without it)."""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from ransomflow import rng, sae
from ransomflow.cli import main
from ransomflow.errors import DataError
from ransomflow.gbt import Histogram, best_split
from ransomflow.serialize import checksum, dump_json

REAL_DATA_ENV = "UGRANSOME_CSV"

_FAMILIES = ("WannaCry", "Locky", "SamSam", "CryptoLocker", "NoobCrypt",
             "EDA2", "TowerWeb", "JigSaw")
_PROTOCOLS = ("TCP", "UDP", "ICMP")
_FLAGS = ("A", "AP", "AF", "AR", "S")
_SEED_ADDR = ("1DA11mPS", "1BonuSr7", "1sYSTEMQ", "1Gnome11")
_EXP_ADDR = ("1MMSaaXn", "1KZaaKuwi", "princexx", "1DiceYdW")
_IPS = ("A", "B", "C")
_THREATS = ("SSH", "Spam", "Scan", "Bonet", "Blacklist")
_CLASSES = ("A", "S", "SS")

HEADER = ("Time,Protocol,Flag,Ransomware,Clusters,SeedAddress,ExpAddress,"
          "BTC,USD,Netflow_Bytes,IPAddress,Malware,Port,Prediction")

# class-conditioned numeric ranges keep the labels learnable
_RANGES = {
    0: {"btc": (20.0, 90.0), "usd": (8000, 20000), "netflow": (4000, 6000),
        "clusters": (9, 12), "time": (40, 96)},
    1: {"btc": (0.0, 5.0), "usd": (100, 2000), "netflow": (500, 1500),
        "clusters": (1, 4), "time": (1, 40)},
    2: {"btc": (5.0, 20.0), "usd": (3000, 7000), "netflow": (2000, 3500),
        "clusters": (5, 8), "time": (20, 70)},
}


def _pick(options, u):
    return options[int(u * len(options)) % len(options)]


def synthetic_rows(n_per_class: int, seed: int):
    """Deterministic class-separable rows; every row unique via NetflowBytes."""
    rows = []
    counter = 0
    for cls_idx, cls in enumerate(_CLASSES):
        band = _RANGES[cls_idx]
        u = rng.uniform(rng.derive(seed, "rows", cls), (n_per_class, 10))
        for i in range(n_per_class):
            time_lo, time_hi = band["time"]
            time_val = time_lo + int(u[i, 0] * (time_hi - time_lo))
            btc_lo, btc_hi = band["btc"]
            btc = round(btc_lo + u[i, 1] * (btc_hi - btc_lo), 2)
            usd_lo, usd_hi = band["usd"]
            usd = usd_lo + int(u[i, 2] * (usd_hi - usd_lo))
            net_lo, net_hi = band["netflow"]
            netflow = net_lo + int(u[i, 3] * (net_hi - net_lo)) * 3 + counter % 3
            clu_lo, clu_hi = band["clusters"]
            clusters = clu_lo + int(u[i, 4] * (clu_hi - clu_lo + 1))
            rows.append((
                str(time_val),
                _pick(_PROTOCOLS, u[i, 5]),
                _pick(_FLAGS, u[i, 6]),
                _FAMILIES[(cls_idx * 3 + int(u[i, 7] * 3)) % len(_FAMILIES)],
                str(clusters),
                _pick(_SEED_ADDR, u[i, 8]),
                _pick(_EXP_ADDR, u[i, 9]),
                str(btc),
                str(usd),
                str(netflow + 10 * counter),  # uniqueness
                _pick(_IPS, u[i, 5]),
                _THREATS[(cls_idx * 2 + int(u[i, 6] * 2)) % len(_THREATS)],
                str(5061 + counter % 8),
                cls,
            ))
            counter += 1
    return rows


def synthetic_csv_text(n_per_class: int = 40, seed: int = 97,
                       duplicates: int = 12, bad_times: int = 6):
    """CSV text plus the counts each cleaning stage should report.

    ``duplicates`` exact copies of existing rows are appended, then
    ``bad_times`` otherwise-unique rows with non-positive timestamps.
    """
    base = synthetic_rows(n_per_class, seed)
    rows = list(base)
    u = rng.uniform(rng.derive(seed, "dups"), (duplicates,))
    for i in range(duplicates):
        rows.append(base[int(u[i] * len(base))])
    for i in range(bad_times):
        donor = list(base[i])
        donor[0] = str(-i)  # Time <= 0
        donor[9] = str(900000 + i)  # stays unique
        rows.append(tuple(donor))
    lines = [HEADER] + [",".join(r) for r in rows]
    meta = {
        "total_rows": len(rows),
        "unique_rows": len(base) + bad_times,
        "duplicates": duplicates,
        "bad_times": bad_times,
        "clean_rows": len(base),
        "per_class": {cls: n_per_class for cls in _CLASSES},
        "classes": _CLASSES,
    }
    return "\n".join(lines) + "\n", meta


def one_class_artifact(directory) -> Path:
    """``ingest`` a CSV whose rows are all of class A into directory/art."""
    header, *rows = synthetic_csv_text(n_per_class=10)[0].splitlines()
    csv_path, art = Path(directory) / "one_class.csv", Path(directory) / "art"
    csv_path.write_text("\n".join(
        [header, *(r for r in rows if r.rsplit(",", 1)[1] == "A")]) + "\n",
        encoding="utf-8")
    assert main(["ingest", str(csv_path), "--output", str(art)]) == 0
    return art


@pytest.fixture(scope="session")
def synthetic_csv(tmp_path_factory):
    text, meta = synthetic_csv_text()
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    path.write_text(text, encoding="utf-8")
    return path, meta


def real_csv_path():
    env = os.environ.get(REAL_DATA_ENV)
    if env and Path(env).is_file():
        return Path(env)
    root = Path(__file__).resolve().parent.parent
    for name in ("UGRansome.csv", "ugransome.csv", "final(2).csv"):
        candidate = root / "data" / name
        if candidate.is_file():
            return candidate
    return None


def require_real_csv() -> Path:
    path = real_csv_path()
    if path is None:
        pytest.skip(
            "WARNING: full-dataset check skipped; place the UGRansome CSV at "
            "data/UGRansome.csv or point UGRANSOME_CSV at it"
        )
    return path


def blob_data(n_per_class: int, k: int, seed: int, width: int = 13,
              spread: float = 0.1):
    """Well-separated class blobs in the unit cube, shuffled."""
    centers = np.linspace(0.2, 0.8, k)
    xs, ys = [], []
    for c in range(k):
        u = rng.uniform(rng.derive(seed, "blob", c), (n_per_class, width))
        xs.append(centers[c] + spread * (u - 0.5))
        ys.append(np.full(n_per_class, c, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    order = rng.permutation(rng.derive(seed, "shuffle"), len(y))
    return x[order], y[order]


def rewrite_table(art, edit):
    """Rewrite art/table.npz with ``edit`` applied to its dict of members,
    and record the new bytes' sha256."""
    with np.load(art / "table.npz") as stored:
        members = {name: stored[name] for name in stored.files}
    edit(members)
    buffer = io.BytesIO()
    np.savez(buffer, **members)
    (art / "table.npz").write_bytes(buffer.getvalue())
    record_table_sha(art)


def record_table_sha(art):
    """Record the sha256 of art/table.npz in dataset.json, checksum renewed."""
    payload = json.loads((art / "dataset.json").read_text())["payload"]
    payload["table_sha256"] = hashlib.sha256(
        (art / "table.npz").read_bytes()).hexdigest()
    dump_json(art / "dataset.json",
              {"checksum": checksum(payload), "payload": payload})


def grad_check(loss_fn, params, eps: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn()`` evaluates the model at the current parameter values and
    returns (loss, grads) with grads aligned to ``params``. Each scalar entry
    is perturbed in place by +/- eps. The relative error for one entry is
    |a - n| / max(|a|, |n|, 1e-8).
    """
    _, analytic = loss_fn()
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.reshape(-1)
        gflat = np.asarray(g, dtype=np.float64).reshape(-1)
        if flat.shape != gflat.shape:
            raise DataError(
                f"grad shape {np.asarray(g).shape} does not match param {p.shape}"
            )
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            loss_plus = loss_fn()[0]
            flat[i] = saved - eps
            loss_minus = loss_fn()[0]
            flat[i] = saved
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            analytic_value = gflat[i]
            denom = max(abs(analytic_value), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic_value - numeric) / denom)
    return worst


def cell_rows(table) -> list:
    """A parsed :class:`ransomflow.dataset.RawTable`'s rows, as tuples of
    cell texts in ``COLUMNS`` order."""
    return list(zip(*([c.cell(i).decode() for i in range(table.row_count)]
                      for c in table.cells)))


def stack_with_decoders(data, config, seed) -> tuple:
    """``sae.build_stack``'s model and the decoders its layers pretrained,
    code side first (the reconstruction order), which the model does not
    keep."""
    decoders, pretrain = [], sae.pretrain_layer

    def recording(*args):
        encoder, decoder, records = pretrain(*args)
        decoders.insert(0, decoder)
        return encoder, decoder, records

    sae.pretrain_layer = recording
    try:
        return sae.build_stack(data, config, seed), decoders
    finally:
        sae.pretrain_layer = pretrain


def param_count(*parts) -> int:
    """The weights and biases of ``parts`` (dense layers, LSTM cells,
    classifiers): the sizes of their ``params()`` arrays, summed."""
    return sum(p.size for part in parts for p in part.params())


def textbook_adam(p, g, m, v, t, lr):
    """One per-tensor Adam step (Kingma & Ba, arXiv 1412.6980) written as
    the plain expressions; returns the new (p, m, v)."""
    m = 0.9 * m + (1.0 - 0.9) * g
    v = 0.999 * v + (1.0 - 0.999) * g * g
    m_hat = m / (1.0 - 0.9 ** t)
    v_hat = v / (1.0 - 0.999 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + 1e-8), m, v


class ReferenceAdam:
    """:func:`textbook_adam` over a list of tensors, the oracle ``nn.Adam``
    must match bit for bit: ``step(params, grads)`` updates each array of
    ``params`` in place."""

    def __init__(self, params, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.moments = [(np.zeros(np.shape(p)), np.zeros(np.shape(p)))
                        for p in params]

    def step(self, params, grads) -> None:
        self.t += 1
        for j, (p, g) in enumerate(zip(params, grads)):
            new, m, v = textbook_adam(p, g, *self.moments[j], self.t,
                                      self.learning_rate)
            p[...] = new
            self.moments[j] = m, v


def fresh_histogram(rows, g, h, layout) -> Histogram:
    """The histogram of ``rows`` summed straight from them: the flat bins
    they hold, and per bin the rows' count, g sum and h sum in row order."""
    rows = np.asarray(rows, dtype=np.int64)
    flat = np.column_stack([codes[rows] + offset for codes, offset
                            in zip(layout.codes, layout.offsets)])
    ids, local = np.unique(flat.ravel(), return_inverse=True)
    d = flat.shape[1]
    return Histogram(ids, np.bincount(local, minlength=ids.size),
                     np.bincount(local, np.repeat(g[rows], d), ids.size),
                     np.bincount(local, np.repeat(h[rows], d), ids.size))


def fresh_split(rows, g, h, params, layout):
    """``gbt.best_split`` at ``rows`` over their fresh histogram."""
    return best_split(fresh_histogram(rows, g, h, layout),
                      float(g[rows].sum()), float(h[rows].sum()), params,
                      layout)
