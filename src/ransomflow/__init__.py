"""Ransomware netflow classification pipeline.

Modules: :mod:`ransomflow.dataset` (CSV to model-ready tensors),
:mod:`ransomflow.nn` (dense layers, losses, Adam, epoch records),
:mod:`ransomflow.sae` (stacked autoencoder feature selection),
:mod:`ransomflow.lstm` (recurrent classifier with full BPTT),
:mod:`ransomflow.gbt` (second-order boosted trees),
:mod:`ransomflow.metrics` (multiclass evaluation and model comparison),
:mod:`ransomflow.analytics` (financial impact and distribution reports),
:mod:`ransomflow.cli` (the ``ransomflow`` command).
"""

__version__ = "0.1.0"
