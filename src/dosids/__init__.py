"""Desk-scale multi-class DoS/DDoS flow classification.

Library layout:

- ``flowdata``   CSV ingestion, socket/constant-column removal, one-hot
                 encoding, min-max normalization, stratified splitting
- ``ndgrad``     reverse-mode autodiff with the 1D primitives the three
                 networks need; ops compute in their inputs' dtype, the
                 pipeline's networks in float32 and the gradient checks
                 in float64
- ``augment``    per-class DCGAN oversampling of minority attack classes
- ``resfeat``    1D residual feature extractor (train, freeze, extract)
- ``alexclf``    reduced 1D AlexNet-style classifier with LRN layers
- ``aso``        atom-search optimizer and classifier hyperparameter tuning
- ``parallel``   process pools for independent jobs (per-class GANs,
                 atom-search generations)
- ``evalkit``    confusion matrices, per-class/macro metrics, the report table
- ``settings``   each config field's key and allowed values; the key table and check
- ``pipeline``   staged end-to-end runs with checkpoints and a manifest
- ``cli``        ``dosids`` command-line entry point
"""

__version__ = "0.1.0"
