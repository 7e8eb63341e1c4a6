"""Exact structural identity of two circuits, up to gate numbering.

``CircuitBuilder.build`` merges structurally equal gates (``circuit._reduce``),
so no two gates of a built circuit share a level, a kind and the same
operands.  Label the leaves by (kind, input index or const bit), then number
each level's gates in order of (kind, sorted operand labels): two built
circuits are the same DAG exactly when these per-level keys and the output
labels are equal.  One array step per level.
"""

import hashlib

import numpy as np

from rangesynth.circuit import AND, gate_depths


def canonical(c) -> tuple:
    """``(num_inputs, keys, outputs)``: per level, the sorted (levels, 3)
    array of its gates' keys (kind, lo, hi), and the outputs' labels.  A
    leaf's key is its kind and input index or bit, with hi 0; a gate's is
    its kind and its operands' labels, smaller first (a NOT's twice).
    Labels number the distinct keys level by level, in key order."""
    kinds, a0, a1 = c._arrays()
    level = gate_depths(c)
    base = max(len(kinds), c.num_inputs, 2)  # above every label, index or bit
    label = np.empty(len(kinds), dtype=np.int64)
    keys, offset = [], 0
    order = np.argsort(level, kind="stable")
    for d, ids in enumerate(np.split(order, np.cumsum(np.bincount(level))[:-1])):
        kind = kinds[ids].astype(np.int64)
        if d == 0:
            lo, hi = a0[ids], np.zeros(len(ids), dtype=np.int64)
        else:
            x = label[a0[ids]]
            y = np.where(kind >= AND, label[a1[ids]], x)
            lo, hi = np.minimum(x, y), np.maximum(x, y)
        key = (kind * base + lo) * base + hi
        at = np.argsort(key, kind="stable")
        fresh = np.ones(len(at), dtype=bool)
        fresh[1:] = key[at][1:] != key[at][:-1]
        label[ids[at]] = offset + np.cumsum(fresh) - 1
        offset += int(fresh.sum())
        keys.append(np.column_stack([kind, lo, hi])[at])
    return c.num_inputs, keys, label[c.outputs]


def assert_same_circuit(new, ref):
    """Assert that two built circuits are the same DAG up to gate numbering;
    a failure names the first level and gate where they part."""
    (m, new_keys, new_outs), (ref_m, ref_keys, ref_outs) = canonical(new), canonical(ref)
    assert m == ref_m, f"{m} inputs against {ref_m}"
    for d, (a, b) in enumerate(zip(new_keys, ref_keys)):
        if not np.array_equal(a, b):
            j = next((j for j, (x, y) in enumerate(zip(a, b)) if (x != y).any()),
                     min(len(a), len(b)))
            got = a[j].tolist() if j < len(a) else "nothing"
            want = b[j].tolist() if j < len(b) else "nothing"
            raise AssertionError(f"level {d} parts at gate {j} of {len(a)} against "
                                 f"{len(b)}: (kind, lo, hi) {got} against {want}")
    assert len(new_keys) == len(ref_keys), (
        f"depth {len(new_keys) - 1} against {len(ref_keys) - 1}")
    assert len(new_outs) == len(ref_outs), f"{len(new_outs)} outputs against {len(ref_outs)}"
    assert np.array_equal(new_outs, ref_outs), (
        f"output {int(np.flatnonzero(new_outs != ref_outs)[0])} differs")


def digest(c) -> str:
    """A SHA-256 hex digest of :func:`canonical`: equal exactly when two
    built circuits are the same DAG up to gate numbering."""
    m, keys, outputs = canonical(c)
    h = hashlib.sha256(f"{m} {len(keys)}".encode())
    for level in keys:
        h.update(np.int64(len(level)).tobytes())
        h.update(np.ascontiguousarray(level, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(outputs, dtype=np.int64).tobytes())
    return h.hexdigest()
