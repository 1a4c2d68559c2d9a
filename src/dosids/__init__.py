"""Desk-scale multi-class DoS/DDoS flow classification.

Library layout:

- ``flowdata``   CSV ingestion, socket/constant-column removal, one-hot
                 encoding, min-max normalization, stratified splitting
- ``ndgrad``     float64 reverse-mode autodiff with the 1D primitives the
                 three networks need
- ``augment``    per-class DCGAN oversampling of minority attack classes
- ``resfeat``    1D residual feature extractor (train, freeze, extract)
- ``alexclf``    reduced 1D AlexNet-style classifier with LRN layers
- ``aso``        atom-search optimizer and classifier hyperparameter tuning
- ``parallel``   process pools for independent jobs (per-class GANs,
                 atom-search generations)
- ``evalkit``    confusion matrices, per-class/macro metrics, the report table
- ``settings``   each config field's allowed values and the one check of them
- ``pipeline``   staged end-to-end runs with checkpoints and a manifest
- ``cli``        ``dosids`` command-line entry point
"""

__version__ = "0.1.0"
