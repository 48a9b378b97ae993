"""Fixture: a per-process seed in a deterministic-scope module (data/)."""

import zlib

import numpy as np


def task_rng(name: str) -> np.random.Generator:
    return np.random.default_rng(hash(name) % 2**32)  # DET004


def stable_rng(name: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(name.encode()))  # clean


def digest(obj) -> int:
    return obj.hash()  # clean: a method, not the builtin
