"""Named random substreams.

Every stochastic component draws from a generator derived from
(master_seed, *name_parts). Adding a new consumer with its own name
never perturbs the draws of existing ones, which is what makes whole
pipeline runs reproducible bit for bit.
"""

import functools
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


@functools.lru_cache(maxsize=1024)
def _name_to_int(name: str) -> int:
    # Names come from a small fixed set ("step", "resample", class names),
    # while the optimizer derives one substream per atom per iteration.
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _part_to_int(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    return _name_to_int(str(part))


def seed_sequence(master_seed, *parts) -> np.random.SeedSequence:
    entropy = [int(master_seed) & _MASK64] + [_part_to_int(p) for p in parts]
    return np.random.SeedSequence(entropy)


def substream(master_seed, *parts) -> np.random.Generator:
    """Generator for the substream named by `parts` under `master_seed`."""
    return np.random.default_rng(seed_sequence(master_seed, *parts))


def substream_seed(master_seed, *parts) -> int:
    """Plain integer seed for APIs that take one."""
    state = seed_sequence(master_seed, *parts).generate_state(1, np.uint64)[0]
    return int(state) & ((1 << 63) - 1)
