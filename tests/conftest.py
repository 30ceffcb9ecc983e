import functools
import operator

import numpy as np
import pytest
from hypothesis import strategies as st

from crtfft import SparseSpectrum, build_views, verify


def spectra_close(got, want, tol=1e-9):
    """Same support, coefficients within tol (absolute)."""
    if [f for f, _ in got.entries] != [f for f, _ in want.entries]:
        return False
    return all(
        abs(a - b) <= tol for (_, a), (_, b) in zip(got.entries, want.entries)
    )


def shift_indices(m, M, shift):
    """Grid indices (j*d + shift) mod M, j < m, of one row of the view on
    modulus m: the time-domain map of the views module's docstring, d = M/m."""
    j = np.arange(m, dtype=np.int64)
    return (j * (M // m) + shift) % M


def random_spectrum(rng, k, grid, fmax=None, unit=False):
    """k distinct tones on [0, fmax or grid) with O(1) magnitudes."""
    top = grid if fmax is None else fmax
    support = set()
    while len(support) < k:
        support.add(int(rng.integers(0, top)))
    if unit:
        coeffs = np.exp(2j * np.pi * rng.random(k))
    else:
        mags = rng.uniform(0.5, 2.0, size=k)
        coeffs = mags * np.exp(2j * np.pi * rng.random(k))
    return SparseSpectrum.from_pairs(list(zip(sorted(support), coeffs)), grid)


def verify_plan(source, plan, candidate):
    """`verify` on the three views of the plan's triple, built from `source`:
    the pipeline's verdict on that candidate."""
    return verify(build_views(source, plan.moduli), candidate)


def refuse_constant(name):
    """A `json.loads` parse_constant that refuses NaN, Infinity and -Infinity,
    which strict JSON (RFC 8259) does not have."""
    raise ValueError(f"non-standard JSON constant {name}")


def json_paths(node, prefix=()):
    """Key path of every value inside a decoded JSON tree."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


DELETE = object()


def set_json_value(payload, path, value) -> None:
    """Replace the value at key path `path`, or remove it when value is DELETE."""
    owner = functools.reduce(operator.getitem, path[:-1], payload)
    if value is DELETE:
        del owner[path[-1]]
    else:
        owner[path[-1]] = value


def mutate_one_value(payload, data) -> None:
    """Delete or retype one value drawn by hypothesis `data`; an integer may
    also become -1, 0, 7 or 2**40."""
    path = data.draw(st.sampled_from(list(json_paths(payload))))
    old = functools.reduce(operator.getitem, path, payload)
    values = [v for v in ("x", None, 1.5, True, 7, [], {}) if type(v) is not type(old)]
    if type(old) is int:
        values += [v for v in (-1, 0, 7, 2**40) if v != old]
    set_json_value(payload, path, data.draw(st.sampled_from([DELETE] + values)))


def mutate_bytes(raw: bytes, data) -> bytes:
    """Apply one to three edits drawn by hypothesis `data`: overwrite, insert
    or delete one byte, or truncate."""
    buf = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 3))):
        edit = data.draw(st.sampled_from(["overwrite", "insert", "delete", "truncate"]))
        at = data.draw(st.integers(0, len(buf)))
        if edit == "overwrite" and at < len(buf):
            buf[at] = data.draw(st.integers(0, 255))
        elif edit == "insert":
            buf.insert(at, data.draw(st.integers(0, 255)))
        elif edit == "delete":
            del buf[at : at + 1]
        elif edit == "truncate":
            del buf[at:]
    return bytes(buf)


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)
