"""Seeded synthetic UGRansome-style CSV at the paper's scale.

The schema and the class-conditioned value ranges follow the test fixture of
the repository, but this module owns its own copy and draws from numpy's
PCG64 generator, so the benchmark inputs do not change when the program's
own RNG or fixtures change.

Planted structure, all exact for a given seed:

* ``duplicates`` exact copies of clean rows (``ingest`` must remove them);
* ``bad_times`` otherwise unique rows whose ``Time`` is not positive;
* the remaining clean rows, unique and split into 3 balanced classes;
* class overlap: a fraction ``overlap`` of clean rows has its label redrawn
  uniformly over the 3 classes, so the classes are not separable and the
  boosted trees grow to realistic depth.
"""

from __future__ import annotations

import numpy as np

PAPER_ROWS = 207_533
PAPER_DUPLICATES = 58_491
PAPER_BAD_TIMES = 1_057
OVERLAP = 0.15

FAMILIES = ("WannaCry", "Locky", "SamSam", "CryptoLocker", "NoobCrypt",
            "EDA2", "TowerWeb", "JigSaw")
PROTOCOLS = ("TCP", "UDP", "ICMP")
FLAGS = ("A", "AP", "AF", "AR", "S")
SEED_ADDR = ("1DA11mPS", "1BonuSr7", "1sYSTEMQ", "1Gnome11")
EXP_ADDR = ("1MMSaaXn", "1KZaaKuwi", "princexx", "1DiceYdW")
IPS = ("A", "B", "C")
THREATS = ("SSH", "Spam", "Scan", "Bonet", "Blacklist")
CLASSES = ("A", "S", "SS")

HEADER = ("Time,Protocol,Flag,Ransomware,Clusters,SeedAddress,ExpAddress,"
          "BTC,USD,Netflow_Bytes,IPAddress,Malware,Port,Prediction")

# (low, high) per class; integers are drawn from [low, high)
RANGES = (
    {"btc": (20.0, 90.0), "usd": (8000, 20000), "netflow": (4000, 6000),
     "clusters": (9, 13), "time": (40, 96)},
    {"btc": (0.0, 5.0), "usd": (100, 2000), "netflow": (500, 1500),
     "clusters": (1, 5), "time": (1, 40)},
    {"btc": (5.0, 20.0), "usd": (3000, 7000), "netflow": (2000, 3500),
     "clusters": (5, 9), "time": (20, 70)},
)

# Rows with a bad timestamp get NetflowBytes from here up, above every clean
# row's value, so they never duplicate a clean row or each other.
_BAD_NETFLOW_BASE = 100_000_000


def _pick(options, u):
    return np.asarray(options)[(u * len(options)).astype(np.int64) % len(options)]


def _span(lo, hi, u):
    return lo + (u * (hi - lo)).astype(np.int64)


def _class_sizes(clean_rows: int) -> list:
    base, extra = divmod(clean_rows, len(CLASSES))
    return [base + (1 if c < extra else 0) for c in range(len(CLASSES))]


def _clean_lines(sizes, gen: np.random.Generator, overlap: float):
    """CSV lines of the unique clean rows (class blocks in order) and labels."""
    lines = []
    labels = []
    counter = 0
    for cls_idx, n in enumerate(sizes):
        band = RANGES[cls_idx]
        u = gen.random((n, 10))
        serial = np.arange(counter, counter + n, dtype=np.int64)
        counter += n
        netflow = (_span(*band["netflow"], u[:, 3]) * 3 + serial % 3
                   + 10 * serial)
        btc_lo, btc_hi = band["btc"]
        btc = np.round(btc_lo + u[:, 1] * (btc_hi - btc_lo), 2)
        family = (cls_idx * 3 + (u[:, 7] * 3).astype(np.int64)) % len(FAMILIES)
        threat = (cls_idx * 2 + (u[:, 6] * 2).astype(np.int64)) % len(THREATS)
        label = np.full(n, cls_idx, dtype=np.int64)
        redraw = gen.random(n) < overlap
        label[redraw] = gen.integers(0, len(CLASSES), int(redraw.sum()))
        labels.append(label)
        columns = (
            _span(*band["time"], u[:, 0]).astype(str),
            _pick(PROTOCOLS, u[:, 5]),
            _pick(FLAGS, u[:, 6]),
            np.asarray(FAMILIES)[family],
            _span(*band["clusters"], u[:, 4]).astype(str),
            _pick(SEED_ADDR, u[:, 8]),
            _pick(EXP_ADDR, u[:, 9]),
            np.asarray([repr(v) for v in btc.tolist()]),
            _span(*band["usd"], u[:, 2]).astype(str),
            netflow.astype(str),
            _pick(IPS, u[:, 5]),
            np.asarray(THREATS)[threat],
            (5061 + serial % 8).astype(str),
            np.asarray(CLASSES)[label],
        )
        lines.extend(",".join(cells)
                     for cells in zip(*(c.tolist() for c in columns)))
    return lines, np.concatenate(labels)


def generate(seed: int, raw_rows: int = PAPER_ROWS,
             duplicates: int = PAPER_DUPLICATES,
             bad_times: int = PAPER_BAD_TIMES, overlap: float = OVERLAP):
    """CSV text plus the counts ``ingest`` should report for it."""
    clean = raw_rows - duplicates - bad_times
    if clean < len(CLASSES) or duplicates < 0 or bad_times < 0:
        raise ValueError(f"{raw_rows} raw rows cannot hold {duplicates} "
                         f"duplicates and {bad_times} bad timestamps")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {overlap}")
    gen = np.random.default_rng(seed)
    base, labels = _clean_lines(_class_sizes(clean), gen, overlap)
    rows = list(base)
    for i, donor in enumerate(gen.integers(0, clean, bad_times).tolist()):
        cells = base[donor].split(",")
        cells[0] = str(-(i % 7))  # Time <= 0
        cells[9] = str(_BAD_NETFLOW_BASE + i)
        rows.append(",".join(cells))
    rows.extend(base[d] for d in gen.integers(0, clean, duplicates).tolist())
    lines = [HEADER]
    lines.extend(rows[i] for i in gen.permutation(len(rows)).tolist())
    counts = np.bincount(labels, minlength=len(CLASSES))
    meta = {
        "seed": seed,
        "parsed_rows": len(rows),
        "duplicates_removed": duplicates,
        "bad_timestamps_removed": bad_times,
        "table_rows": clean,
        "overlap": overlap,
        "clean_per_class": {c: int(n) for c, n in zip(CLASSES, counts)},
    }
    return "\n".join(lines) + "\n", meta

