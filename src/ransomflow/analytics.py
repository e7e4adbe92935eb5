"""Financial-impact and distribution analytics over an encoded table.

All group-by work decodes categorical codes back to their string values, so
reports read naturally regardless of how the vocabulary was numbered; a code
is its name's position in the column's list in ``table.maps``. Money columns
are taken as-is from the cleaned table (pre-normalization values).
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .dataset import TARGET, EncodedTable
from .serialize import REPORT_VERSION, csv_text


@dataclass
class FamilyFinance:
    attack_count: int
    total_usd: float
    mean_usd: float
    total_btc: float
    mean_btc: float


@dataclass
class FinancialReport:
    families: dict[str, FamilyFinance]  # keyed in vocabulary (byte) order
    global_mean_usd: float
    global_mean_btc: float
    total_usd: float
    total_btc: float
    row_count: int

    def to_dict(self) -> dict:
        return {"schema_version": REPORT_VERSION, **asdict(self)}

    def to_csv(self) -> str:
        rows = [(name, *astuple(ff)) for name, ff in self.families.items()]
        rows.append(("(all)", self.row_count, self.total_usd,
                     self.global_mean_usd, self.total_btc, self.global_mean_btc))
        return csv_text(("family", *(f.name for f in fields(FamilyFinance))),
                        rows)


def _per_category(table: EncodedTable, column: str, rows, *weights) -> list:
    """(name, row count, one sum per weight column) of each category of
    ``column``, in code order, zero counts included, over the rows that
    ``rows`` selects (a slice or a boolean mask)."""
    codes = table.codes(column)[rows]
    names = table.maps[column]
    size = len(names)
    counts = np.bincount(codes, minlength=size)
    sums = [np.bincount(codes, weights=w[rows], minlength=size)
            for w in weights]
    return [(names[code], int(counts[code]),
             *(float(s[code]) for s in sums)) for code in range(size)]


def _ranked(entries) -> list:
    """``entries``, tuples of a name and a value, sorted by the value
    descending, then the name ascending, so rankings are reproducible."""
    return sorted(entries, key=lambda e: (-e[1], e[0]))


def financial_report(table: EncodedTable) -> FinancialReport:
    """Attack counts and USD and BTC totals per ransomware family.

    Families absent from the table are omitted; an empty table produces an
    empty report with zero global means.
    """
    usd = table.column("USD")
    btc = table.column("BTC")
    families = {name: FamilyFinance(count, total_usd, total_usd / count,
                                    total_btc, total_btc / count)
                for name, count, total_usd, total_btc in
                _per_category(table, "Family", slice(None), usd, btc)
                if count}
    n = table.row_count
    return FinancialReport(
        families=families,
        global_mean_usd=float(usd.mean()) if n else 0.0,
        global_mean_btc=float(btc.mean()) if n else 0.0,
        total_usd=float(usd.sum()),
        total_btc=float(btc.sum()),
        row_count=n,
    )


def rank_families(report: FinancialReport, key: str, top_n: int):
    """The ``top_n`` families with the largest ``key`` quantity, a field of
    :class:`FamilyFinance`, largest first, as (name, value) pairs.

    Ties break on the family name ascending, keeping rankings reproducible.
    """
    return _ranked((name, getattr(ff, key))
                   for name, ff in report.families.items())[:top_n]


# the fields of a DistributionReport entry
_ENTRY_KEYS = ("value", "count", "percent")


@dataclass
class DistributionReport:
    column: str
    entries: list  # (value, count, percent), count descending
    total: int

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_VERSION,
            "column": self.column,
            "total": self.total,
            "entries": [dict(zip(_ENTRY_KEYS, e)) for e in self.entries],
        }

    def to_csv(self) -> str:
        return csv_text(_ENTRY_KEYS, self.entries)


def malware_distribution(table: EncodedTable) -> DistributionReport:
    """Share of rows per threat category, sorted by count descending then
    name."""
    total = table.row_count
    entries = [(name, count, 100.0 * count / total) for name, count in
               _per_category(table, "Threats", slice(None)) if count]
    return DistributionReport(column="Threats", entries=_ranked(entries),
                              total=total)


@dataclass
class CorrelationMatrix:
    values: np.ndarray
    feature_names: tuple
    zero_variance: tuple  # bool per feature

    def to_csv(self) -> str:
        return csv_text(("feature", *self.feature_names),
                        ((name, *row) for name, row in
                         zip(self.feature_names, self.values.tolist())))

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_VERSION,
            "features": list(self.feature_names),
            "zero_variance": [n for n, flag in zip(self.feature_names,
                                                   self.zero_variance) if flag],
            "matrix": [[float(v) for v in row] for row in self.values],
        }


def correlation_matrix(x: np.ndarray, feature_names) -> CorrelationMatrix:
    """Pearson correlations between the columns of an (n, d) array of at
    least 2 rows, one name per column.

    Constant columns cannot be correlated; they are flagged and their rows
    and columns (diagonal included) are set to 0 rather than NaN.
    """
    d = x.shape[1]
    feature_names = tuple(feature_names)
    constant = np.array([bool((x[:, j] == x[0, j]).all()) for j in range(d)])
    centered = x - x.mean(axis=0)
    centered[:, constant] = 0.0
    cross = centered.T @ centered
    scale = np.sqrt(np.diag(cross))
    safe = np.where(constant, 1.0, scale)
    corr = cross / np.outer(safe, safe)
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    valid = ~constant
    corr[valid, valid] = 1.0
    return CorrelationMatrix(values=corr, feature_names=feature_names,
                             zero_variance=tuple(bool(b) for b in constant))


def anomaly_by_family(table: EncodedTable):
    """Rows labeled with the anomaly class "A", counted per family.

    Every family in the vocabulary appears, zero counts included, sorted by
    count descending then name ascending. A vocabulary without "A" yields
    all-zero counts rather than an error.
    """
    classes = table.maps[TARGET]
    anomaly_code = classes.index("A") if "A" in classes else -1
    return _ranked(_per_category(table, "Family",
                                 table.target_codes() == anomaly_code))


def anomaly_csv(pairs) -> str:
    return csv_text(("family", "anomaly_rows"), pairs)
