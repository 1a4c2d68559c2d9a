"""Seeded input generators and pipeline configs for the three workloads.

Every input is made here from the workload seed; the program under test
only ever sees the CSV and the config file written from its `Inputs`.
Along with the files, each generator returns the facts the output
checks need (class counts, retained columns, categories, budgets), all
derived from the generated rows themselves, never from the program.
"""

from dataclasses import dataclass

import numpy as np

PROTOCOLS = ("TCP", "UDP", "ICMP")
RUN_SEED = 13                      # the pipeline's master seed, fixed per workload
DESK_ROW_CAP = 5000                # the desk preset's row cap
TRAIN_FRACTION = 0.7
HP_BOX = {                         # the tuner's search box, in decoded units
    "momentum": (0.5, 0.99),
    "learning_rate": (1e-4, 1e-1),
    "weight_decay": (1e-4, 10 ** -1.5),
    "batch_size": (16, 32, 64, 128),
    "epochs": (20, 100),
}


@dataclass
class Inputs:
    """One generated input file plus what the checks expect of its run."""

    csv_text: str
    config: dict                       # dotted config keys -> values
    preset: str | None                 # "desk" or None
    class_names: list                  # in first-appearance order, as the loader sees them
    labels: np.ndarray                 # class index per data row, in file order
    numeric_columns: list              # retained numeric columns, in file order
    category_column: str               # the categorical protocol column
    categories: list                   # its values; every one appears in training
    row_cap: int | None
    augment_policy: str
    tune: tuple | None                 # (population, iterations) or None when skipped
    skip_tune_hp: dict | None          # the configured hyperparameters when skipped
    macro_f1_floor: float

    @property
    def rows(self) -> int:
        return int(self.labels.shape[0])


def _blobs(rng, counts, n_features, sigma, lo=0.2, hi=0.8):
    """Gaussian class blobs in [0, 1]^F; rows shuffled. Returns (x, y)."""
    centers = rng.uniform(lo, hi, (len(counts), n_features))
    xs, ys = [], []
    for c, n in enumerate(counts):
        xs.append(np.clip(centers[c] + rng.normal(0.0, sigma, (n, n_features)), 0.0, 1.0))
        ys.append(np.full(n, c, dtype=np.int64))
    x, y = np.concatenate(xs), np.concatenate(ys)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


def _first_appearance(y, names):
    """Reorder class indices to the loader's first-appearance order."""
    order = list(dict.fromkeys(int(v) for v in y))
    remap = {old: new for new, old in enumerate(order)}
    return np.array([remap[int(v)] for v in y], dtype=np.int64), [names[i] for i in order]


def _protocols(rng, n):
    # each value takes a third of the rows, so every one reaches training
    proto = np.array(PROTOCOLS)[np.arange(n) % len(PROTOCOLS)]
    return proto[rng.permutation(n)]


def _csv(header, columns):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def _fmt(values, scale=1.0):
    return [f"{v:.9g}" for v in (np.asarray(values) * scale).tolist()]


def _blob_flow_csv(rng, counts, n_features, class_names, sigma):
    """The criterion-9 layout: an address column, numeric features, a
    categorical protocol, a constant column and the label."""
    x, y = _blobs(rng, counts, n_features, sigma)
    y, names = _first_appearance(y, class_names)
    n = len(y)
    numeric = [f"f{i}" for i in range(n_features)]
    header = ["src_ip"] + numeric + ["proto", "const_col", "attack_cat"]
    columns = [[f"10.0.{r // 250}.{r % 250}" for r in range(n)]]
    columns += [_fmt(x[:, i]) for i in range(n_features)]
    columns += [_protocols(rng, n).tolist(), ["0"] * n, [names[v] for v in y.tolist()]]
    return _csv(header, columns), y, names, numeric


# The tuner runs its whole budget, but not the desk preset's 10 x 20 atoms
# scored by 3-epoch proxies: with those the tuned classifier failed to learn
# on 3 seeds in 10 (see CHANGES.md). 8-epoch proxies learned on every seed
# tried; 10 x (5 + 1) evaluations keep one run near 20 s.
TUNE = (10, 5)


def tuned_balanced(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    text, y, names, numeric = _blob_flow_csv(
        rng, (60,) * 5, 10, ["normal", "dos_hulk", "ddos_loit", "portscan", "slowloris"], 0.05)
    config = {"data.label_column": "attack_cat", "data.socket_columns": "src_ip",
              "data.subsample": str(DESK_ROW_CAP), "run.seed": str(RUN_SEED),
              "extractor.blocks": "4", "aso.population": str(TUNE[0]),
              "aso.iterations": str(TUNE[1]), "aso.proxy_epochs": "8"}
    return Inputs(
        csv_text=text, config=config, preset=None, class_names=names, labels=y,
        numeric_columns=numeric, category_column="proto", categories=list(PROTOCOLS),
        row_cap=DESK_ROW_CAP, augment_policy="median", tune=TUNE, skip_tune_hp=None,
        macro_f1_floor=0.9)


GAN_CLASSES = ["normal", "dos_hulk", "ddos_loit", "portscan",
               "slowloris", "heartbleed", "infiltration", "sql_injection"]
GAN_COUNTS = (600, 600, 600, 600, 300, 300, 300, 4)
GAN_HP = {"momentum": 0.9, "weight_decay": 0.005, "epochs": 5,
          "learning_rate": 0.05, "batch_size": 64}


def gan_imbalanced(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    text, y, names, numeric = _blob_flow_csv(rng, GAN_COUNTS, 10, GAN_CLASSES, 0.05)
    config = {"data.label_column": "attack_cat", "data.socket_columns": "src_ip",
              "run.seed": str(RUN_SEED), "tune.skip": "true",
              "extractor.epochs": "2"}
    config.update({f"classifier.{k}": str(v) for k, v in GAN_HP.items()})
    return Inputs(
        csv_text=text, config=config, preset="desk", class_names=names, labels=y,
        numeric_columns=numeric, category_column="proto", categories=list(PROTOCOLS),
        row_cap=DESK_ROW_CAP,
        augment_policy="median", tune=None, skip_tune_hp=dict(GAN_HP),
        macro_f1_floor=0.8)


# CICFlowMeter export layout (CICDDoS2019 style). Header names keep the
# leading blanks those exports carry; the loader strips them.
CIC_SOCKET = [" Flow ID", " Source IP", " Source Port", " Destination IP",
              " Destination Port", " Timestamp"]
CIC_CONSTANT = [" Bwd PSH Flags", " Fwd URG Flags", " Bwd URG Flags", " CWE Flag Count",
                " Fwd Avg Bytes/Bulk", " Fwd Avg Packets/Bulk", " Fwd Avg Bulk Rate",
                " Bwd Avg Bytes/Bulk", " Bwd Avg Packets/Bulk", " Bwd Avg Bulk Rate"]
CIC_NUMERIC = [" Flow Duration", " Total Fwd Packets", " Total Backward Packets",
               "Total Length of Fwd Packets", " Total Length of Bwd Packets",
               " Fwd Packet Length Max", " Fwd Packet Length Min",
               " Fwd Packet Length Mean", " Fwd Packet Length Std",
               "Bwd Packet Length Max", " Bwd Packet Length Min",
               " Bwd Packet Length Mean", " Bwd Packet Length Std", "Flow Bytes/s",
               " Flow Packets/s", " Flow IAT Mean", " Flow IAT Std", " Flow IAT Max",
               " Flow IAT Min", "Fwd IAT Total", " Fwd IAT Mean", "Bwd IAT Total",
               " Bwd IAT Mean", " Fwd Header Length", " Bwd Header Length",
               "Fwd Packets/s", " Bwd Packets/s", " Min Packet Length",
               " Max Packet Length", " Packet Length Mean", " Down/Up Ratio",
               " Average Packet Size"]
CIC_CLASSES = ["BENIGN", "DrDoS_DNS", "DrDoS_LDAP", "Syn", "UDP-lag"]
CIC_ROWS_PER_CLASS = 10000
# No weight decay: with the reference 0.005 a short run sometimes stayed
# at chance (macro F1 0.73 on one seed in ten).
CIC_HP = {"momentum": 0.9, "weight_decay": 0.0, "epochs": 4,
          "learning_rate": 0.05, "batch_size": 64}


def large_capture(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 3])
    counts = (CIC_ROWS_PER_CLASS,) * len(CIC_CLASSES)
    x, y = _blobs(rng, counts, len(CIC_NUMERIC), 0.05)
    y, names = _first_appearance(y, CIC_CLASSES)
    n = len(y)
    scales = 10.0 ** rng.integers(0, 7, len(CIC_NUMERIC))
    row = np.arange(n)
    src = [f"172.16.{a}.{b}" for a, b in zip((row // 250 % 250).tolist(), (row % 250).tolist())]
    dst = [f"192.168.{a}.{b}" for a, b in zip(rng.integers(0, 50, n).tolist(),
                                              rng.integers(1, 250, n).tolist())]
    sport = rng.integers(1024, 65536, n).tolist()
    dport = rng.choice([53, 80, 123, 389, 443], n).tolist()
    columns = [[f"{s}-{d}-{p}-{q}" for s, d, p, q in zip(src, dst, sport, dport)],
               src, [str(p) for p in sport], dst, [str(p) for p in dport],
               [f"2019-01-12 10:{(r // 60) % 60:02d}:{r % 60:02d}.{r % 997:03d}"
                for r in row.tolist()]]
    header = CIC_SOCKET + [" Protocol"]
    columns.append(_protocols(rng, n).tolist())
    header += CIC_CONSTANT
    columns += [["0"] * n for _ in CIC_CONSTANT]
    header += CIC_NUMERIC
    columns += [_fmt(x[:, i], scales[i]) for i in range(len(CIC_NUMERIC))]
    header.append(" Label")
    columns.append([names[v] for v in y.tolist()])
    # No preset: the desk row cap is set directly, so that a one-block
    # extractor and short training leave ingest the largest stage.
    config = {"data.label_column": "Label", "data.subsample": str(DESK_ROW_CAP),
              "run.seed": str(RUN_SEED), "augment.policy": "none", "tune.skip": "true",
              "extractor.blocks": "1", "extractor.base_channels": "8",
              "extractor.epochs": "2", "extractor.batch_size": "64"}
    config.update({f"classifier.{k}": str(v) for k, v in CIC_HP.items()})
    return Inputs(
        csv_text=_csv(header, columns), config=config, preset=None,
        class_names=names, labels=y, numeric_columns=[c.strip() for c in CIC_NUMERIC],
        category_column="Protocol", categories=list(PROTOCOLS), row_cap=DESK_ROW_CAP,
        augment_policy="none",
        tune=None, skip_tune_hp=dict(CIC_HP), macro_f1_floor=0.9)


WORKLOADS = {
    "tuned_balanced": tuned_balanced,
    "gan_imbalanced": gan_imbalanced,
    "large_capture": large_capture,
}


def config_text(inputs: Inputs, csv_path: str, out_dir: str) -> str:
    lines = [f"data.input = {csv_path}", f"run.out = {out_dir}"]
    lines += [f"{k} = {v}" for k, v in inputs.config.items()]
    return "\n".join(lines) + "\n"
