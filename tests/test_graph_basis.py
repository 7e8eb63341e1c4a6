"""The cached closed-form triangle basis against the loop-built reference.

``graphs._basis`` computes the short-edge triangle basis, its incidence and
the sweep's indexes as arrays in closed form; ``tests/witness_reference.py``
keeps the per-vertex loop with its sort and checks, and the per-pair
synthesizers that read its incidence dict.  The public basis must equal the
reference and both synthesizers must serialize byte for byte as the
reference ones do.  ``_check_size`` refuses every vertex count whose proof
would be wider than ``circuit.MAX_INPUTS``.
"""

import numpy as np
import pytest

from rangesynth import graphs
from rangesynth.circuit import MAX_INPUTS, serialize
from rangesynth.cli import run
from rangesynth.languages import EncodingError
from tests import witness_reference as ref


@pytest.mark.parametrize("v", range(0, 201))
def test_basis_matches_reference(v):
    got, want = graphs.triangle_basis(v), ref.triangle_basis(v)
    assert got.triangles == want.triangles
    assert got.edge_incidence == want.edge_incidence
    assert all(lst == sorted(lst) and len(lst) <= 5 for lst in got.edge_incidence.values())


@pytest.mark.parametrize("v", [0, 1, 2, 3, 4, 7, 30])
def test_basis_arrays_agree(v):
    """The cached arrays are read-only and say what the public basis says."""
    tris, (rows, cols), incidence, gather, order = graphs._basis(v)
    for arr in (tris, rows, cols, incidence, gather, order):
        assert not arr.flags.writeable
    basis = graphs.triangle_basis(v)
    assert [tuple(t) for t in (tris + 1).tolist()] == basis.triangles
    for a, b, row in zip(rows.tolist(), cols.tolist(), incidence.tolist()):
        kept = [i for i in row if i >= 0]
        assert row == [-1] * (5 - len(kept)) + kept
        assert kept == basis.edge_incidence.get((a + 1, b + 1), [])
    d, u = np.divmod(order, max(v, 1))  # each triangle's longest edge
    assert np.array_equal(np.stack([u, u + d // 2, u + d], axis=1), tris)
    d, u = np.nonzero(np.add.outer(np.arange(v), np.arange(v)) < v)
    assert np.array_equal(gather[d, u], u * v + u + d)


@pytest.mark.parametrize("v", range(3, 61))
def test_synth_cycles_matches_reference(v):
    assert serialize(graphs.synth_cycles(v)) == serialize(ref.synth_cycles(v))


@pytest.mark.parametrize("v", range(2, 61))
def test_synth_ustconn_matches_reference(v):
    assert serialize(graphs.synth_ustconn(v)) == serialize(ref.synth_ustconn(v))


# the largest vertex count each kind accepts: proof widths (v-1)(v-2)/2,
# (v-1)^2 and v^2+v-2 up to MAX_INPUTS = 2^24
LARGEST = {"cycles": 5794, "ustconn": 4097, "unreach": 4095}


@pytest.mark.parametrize("kind", sorted(LARGEST))
def test_check_size_refuses_proofs_wider_than_max_inputs(kind):
    n = LARGEST[kind]
    graphs._check_size(kind, n)
    for too_many in (n + 1, 100_000):
        with pytest.raises(EncodingError, match=f"{kind} on n={too_many} vertices needs "
                                                f"\\d+ proof bits, more than the {MAX_INPUTS}"):
            graphs._check_size(kind, too_many)


@pytest.mark.parametrize("kind", sorted(LARGEST))
def test_synth_too_large_exit_2(kind, tmp_path, capsys):
    out = tmp_path / "c.circ"
    n = LARGEST[kind] + 1
    assert run(["synth", kind, "--n", str(n), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"{kind} on n={n} vertices needs " in captured.err and not out.exists()
