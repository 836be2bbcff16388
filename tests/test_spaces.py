from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from fockhopf import graded, spaces
from fockhopf.spaces import (
    AuxSpace,
    FockSpace,
    Operator,
    TensorSpace,
    Vector,
    basis_vector,
    coo_sum,
    max_entry_diff,
    sorted_unique,
    tensor_space,
    vacuum_leg_decomposition,
)
from fockhopf.words import Alphabet, Word, word

from leg_reference import flip_permutation, kron, leg_embed, permutation, slice_left, slice_right
from fockhopf.corep import fundamental_corep
from fockhopf.hopf import comult
from fockhopf.regular import FourierSeries, map_entries, realize, word_shift
from fockhopf.sampling import rng_for
from scipy_oracle import assert_same_arrays, from_scipy, max_abs as scipy_max_abs, scipy_csr

A2 = Alphabet(2)


def labels_at(space, i):
    # The factor labels of basis index i of a tensor space, by mixed-radix division.
    labels = []
    for f, stride in zip(space.factors, space.strides):
        q, i = divmod(i, stride)
        labels.append(f.word_at(q) if isinstance(f, FockSpace) else q)
    return tuple(labels)


def operator_entries(op):
    # The coordinate list of the stored entries, each position labelled by its words.
    def text(space, i):
        labels = labels_at(space, i) if isinstance(space, TensorSpace) else (space.word_at(i),)
        return ",".join(w.text(A2.n) for w in labels)

    coo = scipy_csr(op).tocoo()
    return [
        {"row": text(op.codomain, r), "col": text(op.domain, c), "re": v.real, "im": v.imag}
        for r, c, v in zip(coo.row, coo.col, coo.data)
    ]


def rnd_sparse_operator(rng, space, density=0.4):
    dense = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal(
        (space.dim, space.dim)
    )
    dense[rng.random((space.dim, space.dim)) > density] = 0.0
    return Operator.from_dense(space, space, dense)


def test_fock_space_dimensions():
    assert FockSpace(A2, 3).dim == 15
    assert FockSpace(Alphabet(1), 3).dim == 4
    assert FockSpace(Alphabet(3), 2).dim == 13
    with pytest.raises(ValueError):
        FockSpace(A2, -1)


def test_index_word_round_trip():
    space = FockSpace(A2, 3)
    for i, w in enumerate(space.words):
        assert space.index_of(w) == i
        assert space.word_at(i) == w
    with pytest.raises(ValueError):
        space.index_of(word(1, 1, 1, 1))
    with pytest.raises(ValueError):
        space.index_of(word(3))


def test_basis_vector_position():
    space = FockSpace(A2, 3)
    vec = basis_vector(space, word(1, 1))
    assert vec.data[3] == 1.0 and np.count_nonzero(vec.data) == 1
    with pytest.raises(ValueError):
        basis_vector(space, word(1, 1, 1, 1))


def test_orthonormality():
    space = FockSpace(A2, 2)
    for u in space.words:
        for v in space.words:
            expected = 1.0 if u == v else 0.0
            assert np.vdot(basis_vector(space, v).data, basis_vector(space, u).data) == expected


def test_inner_conjugate_linear_in_second_slot():
    # A rank-one functional's value at the empty word is the pairing (xi, eta).
    from fockhopf.predual import from_rank_one

    space = FockSpace(A2, 1)
    x = basis_vector(space, word(1))
    scaled = Vector(space, 2j * x.data)
    assert from_rank_one(space, [(scaled, x)]).value(Word()) == 2j
    assert from_rank_one(space, [(x, scaled)]).value(Word()) == -2j


def test_tensor_space_row_major():
    h = FockSpace(A2, 1)
    pair = tensor_space(h, h)
    assert pair.dim == 9
    assert pair.strides == (3, 1)
    assert labels_at(pair, 5) == (word(1), word(2))
    vec = basis_vector(pair, h.index_of(word(1)) * h.dim + h.index_of(word(2)))
    assert vec.data[5] == 1.0
    flat = tensor_space(pair, h)
    assert len(flat.factors) == 3


def test_tensor_of_basis_vectors_is_kron():
    h = FockSpace(A2, 1)
    pair = tensor_space(h, h)
    for u in h.words:
        for v in h.words:
            direct = basis_vector(pair, h.index_of(u) * h.dim + h.index_of(v)).data
            oracle = np.kron(basis_vector(h, u).data, basis_vector(h, v).data)
            assert np.array_equal(direct, oracle)


def test_operator_apply_identity_and_compose():
    space = FockSpace(A2, 2)
    ident = Operator.identity(space)
    x = basis_vector(space, word(2, 1))
    assert np.array_equal(ident.apply(x).data, x.data)
    rng = np.random.default_rng(3)
    a = rnd_sparse_operator(rng, space)
    b = rnd_sparse_operator(rng, space)
    composed = scipy_csr(a @ b).toarray()
    assert np.allclose(composed, scipy_csr(a).toarray() @ scipy_csr(b).toarray())


def test_adjoint_reverses_composition_dense_oracle():
    space = FockSpace(A2, 2)  # dim 7, well below the dense-oracle comfort zone
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rnd_sparse_operator(rng, space)
        b = rnd_sparse_operator(rng, space)
        lhs = scipy_csr((a @ b).adjoint()).toarray()
        rhs = scipy_csr(b.adjoint() @ a.adjoint()).toarray()
        assert np.allclose(lhs, rhs, atol=1e-12)
        assert np.allclose(scipy_csr(a.adjoint().adjoint()).toarray(), scipy_csr(a).toarray())


def test_shape_mismatch_raises():
    small = FockSpace(A2, 1)
    big = FockSpace(A2, 2)
    with pytest.raises(ValueError):
        Operator.identity(small) @ Operator.identity(big)
    with pytest.raises(ValueError):
        Operator.identity(small).apply(basis_vector(big, Word()))


def test_tensor_op_matches_dense_kron():
    # The tests' Kronecker product (leg_reference.kron, scipy's) against numpy's dense one.
    space = FockSpace(A2, 1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rnd_sparse_operator(rng, space)
        b = rnd_sparse_operator(rng, space)
        direct = scipy_csr(kron(a, b)).toarray()
        oracle = np.kron(scipy_csr(a).toarray(), scipy_csr(b).toarray())
        assert np.allclose(direct, oracle, atol=1e-12)
    ident = Operator.identity(space)
    assert max_entry_diff(kron(ident, ident), Operator.identity(tensor_space(space, space))) == 0.0


def test_tensor_op_associative_after_flattening():
    space = FockSpace(A2, 1)
    rng = np.random.default_rng(31)
    # Integer entries keep the two association orders bitwise identical.
    ops = [
        Operator.from_dense(space, space, rng.integers(-3, 4, (space.dim, space.dim)).astype(complex))
        for _ in range(3)
    ]
    left = kron(kron(ops[0], ops[1]), ops[2])
    right = kron(ops[0], kron(ops[1], ops[2]))
    assert left.domain == right.domain
    assert max_entry_diff(left, right) == 0.0


def test_flip_involution_and_conjugation():
    # The tests' flip (leg_reference.flip, a scipy permutation matrix).
    space = FockSpace(A2, 1)
    pair = tensor_space(space, space)
    flip = flip_permutation(pair)
    assert max_entry_diff(flip @ flip, Operator.identity(pair)) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rnd_sparse_operator(rng, space)
        b = rnd_sparse_operator(rng, space)
        lhs = scipy_csr(flip @ kron(a, b) @ flip).toarray()
        rhs = scipy_csr(kron(b, a)).toarray()
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_flip_on_vectors():
    space = FockSpace(A2, 1)
    pair = tensor_space(space, space)
    flip = flip_permutation(pair)
    x = basis_vector(pair, space.index_of(word(1)) * space.dim + space.index_of(word(2)))
    y = basis_vector(pair, space.index_of(word(2)) * space.dim + space.index_of(word(1)))
    assert np.array_equal(flip.apply(x).data, y.data)


def leg_embed_oracle(v, legs, ambient):
    # Permutation-conjugation oracle: embed on legs (1,2) and conjugate by the
    # permutation moving the ambient legs into place.
    h1, h2 = v.domain.factors
    other = ambient.factors[({1, 2, 3} - set(legs)).pop() - 1]
    base = kron(v, Operator.identity(other))
    perm = np.empty(ambient.dim, dtype=np.int64)
    for i in range(ambient.dim):
        labels = labels_at(ambient, i)
        i1, j1 = legs
        reordered = (labels[i1 - 1], labels[j1 - 1]) + tuple(
            lab for pos, lab in enumerate(labels, start=1) if pos not in legs
        )
        perm[i] = sum(
            (f.index_of(lab) if isinstance(f, FockSpace) else lab) * stride
            for f, stride, lab in zip(base.domain.factors, base.domain.strides, reordered)
        )
    mover = permutation(ambient, base.domain, perm)
    return mover.adjoint() @ base @ mover


def test_leg_embed_against_permutation_oracle():
    space = FockSpace(A2, 1)
    pair = tensor_space(space, space)
    ambient = tensor_space(space, space, space)
    rng = np.random.default_rng(13)
    a = rnd_sparse_operator(rng, space)
    b = rnd_sparse_operator(rng, space)
    v = kron(a, b)
    ident = Operator.identity(space)
    assert max_entry_diff(leg_embed(v, (1, 2), ambient), kron(a, b, ident)) == 0.0
    assert max_entry_diff(leg_embed(v, (2, 3), ambient), kron(ident, a, b)) == 0.0
    thirteen = leg_embed(v, (1, 3), ambient)
    assert max_entry_diff(thirteen, kron(a, ident, b)) < 1e-12
    for legs in [(1, 2), (1, 3), (2, 3)]:
        got = leg_embed(v, legs, ambient)
        oracle = leg_embed_oracle(v, legs, ambient)
        assert max_entry_diff(got, oracle) < 1e-12


def test_leg_embed_validates_factors():
    space = FockSpace(A2, 1)
    other = FockSpace(A2, 2)
    pair = tensor_space(space, space)
    ambient = tensor_space(space, other, space)
    v = Operator.identity(pair)
    with pytest.raises(ValueError):
        leg_embed(v, (1, 2), ambient)
    with pytest.raises(ValueError):
        leg_embed(v, (2, 1), tensor_space(space, space, space))


def test_slice_elementary_tensor():
    # The tests' slice maps (leg_reference, scipy sums), the references of the vacuum slices.
    space = FockSpace(A2, 2)
    rng = np.random.default_rng(17)
    a = rnd_sparse_operator(rng, space)
    b = rnd_sparse_operator(rng, space)
    t = kron(a, b)
    xi = basis_vector(space, word(1))
    eta = basis_vector(space, word(2, 1))
    left = slice_left([(xi, eta)], t)
    scale = np.vdot(eta.data, a.apply(xi).data)
    assert np.allclose(scipy_csr(left).toarray(), scale * scipy_csr(b).toarray(), atol=1e-12)
    right = slice_right([(basis_vector(space, Word()), basis_vector(space, Word()))], t)
    scale_r = np.vdot(basis_vector(space, Word()).data, b.apply(basis_vector(space, Word())).data)
    assert np.allclose(scipy_csr(right).toarray(), scale_r * scipy_csr(a).toarray(), atol=1e-12)


def test_slice_reads_first_leg_coefficients():
    # Slicing sum_u L_u (x) B_u against the vacuum/word pair returns B_w.
    from fockhopf.regular import word_shift

    space = FockSpace(A2, 2)
    rng = np.random.default_rng(19)
    families = {w: rnd_sparse_operator(rng, space) for w in space.words[:4]}
    t = Operator.zero(tensor_space(space, space))
    for w, b in families.items():
        t = t + kron(word_shift(space, w, "left"), b)
    vac = basis_vector(space, Word())
    for w, b in families.items():
        got = slice_left([(vac, basis_vector(space, w))], t)
        assert max_entry_diff(got, b) < 1e-12
    fast = vacuum_leg_decomposition(t, leg=1)
    for w, b in families.items():
        assert max_entry_diff(fast[w], b) < 1e-12


def literal_operator_sum(space, ops):
    # Every term's coordinates in one COO -> CSR pass; cancelled entries dropped.
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    vals = [np.empty(0, dtype=np.complex128)]
    for op in ops:
        coo = scipy_csr(op).tocoo()
        rows.append(coo.row)
        cols.append(coo.col)
        vals.append(coo.data)
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    mat = sparse.coo_matrix(entries, shape=(space.dim, space.dim)).tocsr()
    mat.eliminate_zeros()
    return from_scipy(space, space, mat)


def test_vacuum_families_on_unequal_legs():
    # The leg next to the Fock leg is an auxiliary space of another size, so
    # the block rows must be keyed by that size on both legs.
    from fockhopf.regular import word_shift

    space = FockSpace(A2, 2)
    aux = AuxSpace(3)
    rng = np.random.default_rng(31)
    families = {w: rnd_sparse_operator(rng, aux) for w in space.words[1:5]}
    shifts = {w: word_shift(space, w, "left") for w in families}
    first = literal_operator_sum(
        tensor_space(space, aux), (kron(shifts[w], b) for w, b in families.items())
    )
    second = literal_operator_sum(
        tensor_space(aux, space), (kron(b, shifts[w]) for w, b in families.items())
    )
    for t, leg in ((first, 1), (second, 2)):
        family = vacuum_leg_decomposition(t, leg=leg)
        assert sorted(family, key=space.index_of) == list(families)
        for w, b in families.items():
            assert max_entry_diff(family[w], b) == 0.0
    with pytest.raises(ValueError):
        vacuum_leg_decomposition(first, leg=2)


def test_slice_linear_in_pairs():
    space = FockSpace(A2, 1)
    rng = np.random.default_rng(23)
    t = rnd_sparse_operator(rng, tensor_space(space, space))
    xi1, eta1 = basis_vector(space, word(1)), basis_vector(space, word(2))
    xi2, eta2 = basis_vector(space, Word()), basis_vector(space, word(1))
    both = slice_left([(xi1, eta1), (xi2, eta2)], t)
    split = slice_left([(xi1, eta1)], t) + slice_left([(xi2, eta2)], t)
    assert max_entry_diff(both, split) < 1e-12


def test_slice_space_mismatch():
    space = FockSpace(A2, 1)
    other = FockSpace(A2, 2)
    t = Operator.identity(tensor_space(space, space))
    with pytest.raises(ValueError):
        slice_left([(basis_vector(other, Word()), basis_vector(other, Word()))], t)


def test_matrix_entries_determine_operator():
    # Basis completeness: reconstructing from all matrix entries recovers T.
    space = FockSpace(A2, 1)
    pair = tensor_space(space, space)
    rng = np.random.default_rng(29)
    t = rnd_sparse_operator(rng, pair)
    rebuilt = np.zeros((pair.dim, pair.dim), dtype=complex)
    for i in range(pair.dim):
        for j in range(pair.dim):
            ei = basis_vector(pair, i)
            ej = basis_vector(pair, j)
            rebuilt[i, j] = np.vdot(ei.data, t.apply(ej).data)
    assert np.allclose(rebuilt, scipy_csr(t).toarray(), atol=1e-12)


def test_aux_space_and_scalar():
    aux = AuxSpace(3)
    vec = basis_vector(aux, 2)
    assert vec.data[2] == 1.0
    with pytest.raises(ValueError):
        basis_vector(aux, 5)
    with pytest.raises(ValueError):
        AuxSpace(0)


def test_operator_entries_serialization():
    space = FockSpace(A2, 1)
    op = Operator.from_entries(space, space, [1], [0], [1 + 2j])
    entries = operator_entries(op)
    assert entries == [{"row": "1", "col": "e", "re": 1.0, "im": 2.0}]
    pair = tensor_space(space, space)
    flip_entries = operator_entries(flip_permutation(pair))
    assert {"row": "2,1", "col": "1,2", "re": 1.0, "im": 0.0} in flip_entries


def test_operator_keeps_a_canonical_complex_csr():
    # Canonical arrays are taken as they are: no copy, frozen in place.
    space = FockSpace(A2, 2)
    mat = sparse.random(space.dim, space.dim, density=0.3, format="csr", random_state=1) * (1 + 1j)
    arrays = (mat.data, mat.indices, mat.indptr)
    op = Operator(space, space, arrays)
    assert all(kept is given for kept, given in zip(op.csr, arrays))
    assert not any(arr.flags.writeable for arr in op.csr)


def test_operator_checks_shape_and_sums_duplicates():
    space = FockSpace(A2, 1)
    empty = np.zeros(0, dtype=np.int32)
    with pytest.raises(ValueError, match="do not match spaces"):
        Operator(space, space, (empty.astype(complex), empty, np.zeros(3, dtype=np.int32)))
    with pytest.raises(ValueError, match="does not match spaces"):
        Operator.from_dense(space, space, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="outside"):
        Operator.from_entries(space, space, [3], [0], [1.0])
    # Row 0 stores column 1 twice; the operator keeps one summed entry.
    op = Operator.from_entries(space, space, [0, 0, 1], [1, 1, 2], [1 + 1j, 2.0, 0.5j])
    assert op.nnz == 2
    assert scipy_csr(op)[0, 1] == 3 + 1j and scipy_csr(op)[1, 2] == 0.5j


def test_values_frozen_after_construction():
    space = FockSpace(A2, 1)
    source = np.ones(space.dim, dtype=complex)
    vec = Vector(space, source)
    source[0] = 5.0  # the vector keeps its own frozen copy
    assert vec.data[0] == 1.0
    with pytest.raises(ValueError):
        vec.data[0] = 2.0
    op = Operator.identity(space)
    with pytest.raises(ValueError):
        op.csr[0][0] = 2.0


@pytest.mark.parametrize(
    "keys",
    [
        np.empty(0, dtype=np.int64),
        np.full(7, 3, dtype=np.int64),
        np.array([5], dtype=np.int32),
        np.array([9, -2, 9, 0, -2, 4, 0, 0], dtype=np.int64),
        np.random.default_rng(0).integers(0, 50, size=1000).astype(np.int32),
    ],
)
def test_sorted_unique_matches_numpy_unique(keys):
    keys.setflags(write=False)  # support arrays are read-only; the input is left alone
    got = sorted_unique(keys)
    want = np.unique(keys)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_no_src_module_names_scipy():
    # The package does its sparse arithmetic on its own CSR arrays; scipy is
    # the tests' oracle only, so ``import fockhopf`` never loads it.
    naming = {path.name for path in Path(spaces.__file__).parent.glob("*.py") if "scipy" in path.read_text()}
    assert naming == set()


# ---------------------------------------------------------------------------
# Each Operator kernel against scipy's, to the bit: the dtype and bytes of
# data, indices and indptr.  Values are non-dyadic complex numbers with both
# signs of zero among their parts, so a difference in rounding or in the
# order of a sum shows.

KERNEL_GRID = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (2, 5), (2, 7)]


def _signed_values(rng, size):
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    zeros = np.array([0.0, -0.0])
    vals.real[::5] = zeros[rng.integers(0, 2, vals[::5].size)]
    vals.imag[::7] = zeros[rng.integers(0, 2, vals[::7].size)]
    return vals


def _canonical(mat):
    # The matrix as the package took a scipy result: complex (scipy's kron of
    # an empty operand is real), its rows' columns sorted (a product leaves them unsorted).
    mat = sparse.csr_matrix(mat, dtype=np.complex128)
    mat.sum_duplicates()
    return mat


def _spread_entries(rng, space, per_row, width):
    # per_row entries in every row, columns below width: positions repeat, and
    # no row holds more than 16 entries, the rows scipy's sort keeps stable.
    rows = rng.permutation(np.repeat(np.arange(space.dim), per_row))
    cols = rng.integers(0, min(width, space.dim), size=rows.size)
    return rows, cols, _signed_values(rng, rows.size)


def _kernel_operands(space, rng):
    # A realized non-dyadic series, shifts, adjoints, and coordinate entries.
    series = FourierSeries(space.alphabet, _signed_values(rng, space._block_starts[min(3, space.depth) + 1]))
    a = realize(series, space)
    noise = Operator.from_entries(space, space, *_spread_entries(rng, space, 3, space.dim))
    shift, right = word_shift(space, word(1), "left"), word_shift(space, word(space.n, 1), "right")
    return [a, a.adjoint(), shift, right.adjoint(), noise, Operator.zero(space)]


@pytest.mark.parametrize("n,depth", KERNEL_GRID)
def test_arithmetic_matches_scipy_to_the_bit(n, depth):
    space = FockSpace(Alphabet(n), depth)
    ops = _kernel_operands(space, rng_for(depth, "kernel-arithmetic", n))
    for x in ops:
        xm = scipy_csr(x)
        for y in ops:
            ym = scipy_csr(y)
            assert_same_arrays(x @ y, _canonical(xm @ ym))
            assert_same_arrays(x + y, _canonical(xm + ym))
            assert_same_arrays(x - y, _canonical(xm - ym))
        for scalar in (0.3 - 0.7j, -2.0, 1j, 0.0):
            assert_same_arrays(x * scalar, xm * scalar)
            assert_same_arrays(scalar * x, scalar * xm)
        assert (x - x).nnz == 0


def test_cancelling_sums_are_dropped_as_scipy_drops_them():
    space = FockSpace(A2, 2)
    z = 0.1 + 0.3j
    left = Operator.from_entries(space, space, [0, 0, 1, 1], [0, 1, 0, 2], [z, -z, z, 0.7])
    right = Operator.from_entries(space, space, [0, 1, 2], [3, 3, 3], [1.0, 1.0, 0.5])
    product = left @ right  # row 0 sums z - z at column 3; row 1 keeps z + 0.35
    assert product.nnz == 1
    assert_same_arrays(product, _canonical(scipy_csr(left) @ scipy_csr(right)))
    twice = Operator.from_entries(space, space, [0, 0, 2], [1, 1, 2], [z, -z, z])
    assert twice.nnz == 2  # the cancelled duplicate is stored as zero, as coo -> csr keeps it
    assert_same_arrays(twice, sparse.coo_matrix(([z, -z, z], ([0, 0, 2], [1, 1, 2])), shape=(7, 7)).tocsr())
    assert_same_arrays(left - twice, _canonical(scipy_csr(left) - scipy_csr(twice)))


@pytest.mark.parametrize("n,depth", KERNEL_GRID)
def test_pair_space_products_match_scipy_to_the_bit(n, depth):
    # The products of the corep and hopf checks: (L_1 (x) L_1) W, W (I (x) L_1),
    # the flipped comultiplication, and a non-dyadic Kronecker product.
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "kernel-pair", n)
    shift, ident = word_shift(space, word(1), "left"), Operator.identity(space)
    w = fundamental_corep(space).operator
    series = FourierSeries(space.alphabet, _signed_values(rng, space._block_starts[min(2, depth) + 1]))
    delta = comult(series, space)
    flip = flip_permutation(delta.domain)
    noise = Operator.from_entries(space, space, *_spread_entries(rng, space, 2, space.dim))
    for x, y in [
        (kron(shift, shift), w),
        (w, kron(ident, shift)),
        (flip, delta),
        (flip @ delta, flip),
        (kron(noise, realize(series, space)), delta),
    ]:
        assert_same_arrays(x @ y, _canonical(scipy_csr(x) @ scipy_csr(y)))
        assert_same_arrays(x - y, _canonical(scipy_csr(x) - scipy_csr(y)))


def _partial_maps(space, rng, count):
    # Operators storing at most one entry a column, some columns empty, rows repeating, non-dyadic values.
    maps = []
    for _ in range(count):
        cols = np.flatnonzero(rng.random(space.dim) < 0.7)
        rows = rng.integers(0, space.dim, cols.size)
        maps.append(Operator.from_entries(space, space, rows, cols, _signed_values(rng, cols.size)))
    return maps


def _column_entries_of(mat):
    # Each column's one stored (row, value) of a scipy matrix, -1 and 0 where it stores none.
    mat = sparse.csc_matrix(mat)
    assert np.all(np.diff(mat.indptr) <= 1)
    image, value = np.full(mat.shape[1], -1), np.zeros(mat.shape[1], dtype=np.complex128)
    cols = np.flatnonzero(np.diff(mat.indptr))
    image[cols], value[cols] = mat.indices, mat.data
    return image, value


@pytest.mark.parametrize("n,depth", KERNEL_GRID)
def test_tensor_products_match_scipy_kron_to_the_bit(n, depth):
    # regular's composer reads a tuple factor as the tensor product of its legs:
    # each column's image and value are scipy's kron to the bit.
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "kernel-kron", n)
    x, y, z = _partial_maps(space, rng, 3)
    shift, zero = word_shift(space, word(1), "left"), Operator.zero(space)
    small = FockSpace(Alphabet(n), min(depth, 2))
    b, c, s = _partial_maps(small, rng_for(depth, "kernel-kron-3", n), 3)
    for legs in [(x, y), (y, x), (shift, z), (z, shift), (zero, x), (x, zero), (b, c, s)]:
        image, value = _column_entries_of(reduce(sparse.kron, map(scipy_csr, legs)))
        k, rows, vals = map_entries((legs,))
        assert np.array_equal(k, np.flatnonzero(image >= 0)) and np.array_equal(rows, image[k])
        assert vals.tobytes() == value[k].tobytes()


@pytest.mark.parametrize("n,depth", KERNEL_GRID)
def test_coordinate_and_dense_constructors_match_scipy_to_the_bit(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "kernel-coo", n)
    shape = (space.dim, space.dim)
    for per_row, width in ((1, space.dim), (4, 3), (16, 5)):  # (16, 5): every row sums repeats
        rows, cols, vals = _spread_entries(rng, space, per_row, width)
        vals[1::4] = -vals[::4][: vals[1::4].size]  # some pairs cancel when they share a position
        want = sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
        assert_same_arrays(Operator.from_entries(space, space, rows, cols, vals), want)
        want.eliminate_zeros()
        half = rows.size // 2
        parts = [(arr[:half], arr[half:]) for arr in (rows, cols, vals)]
        assert_same_arrays(coo_sum(space, *parts), want)
        dense = np.zeros(shape, dtype=np.complex128)
        dense[rows, cols] = vals
        assert_same_arrays(Operator.from_dense(space, space, dense), sparse.csr_matrix(dense))


@pytest.mark.parametrize("n,depth", KERNEL_GRID)
def test_column_restricted_entry_diff_matches_scipy(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "kernel-max-abs", n)
    ops = _kernel_operands(space, rng)
    for x, y in zip(ops, ops[1:] + ops[:1]):
        diff = scipy_csr(x) - scipy_csr(y)
        for columns in (None, np.arange(0, space.dim, 3), rng.permutation(space.dim)[: space.dim // 2], np.arange(0)):
            assert max_entry_diff(x, y, columns) == scipy_max_abs(diff, columns)


@pytest.mark.parametrize("n,depth", KERNEL_GRID)
def test_slices_match_the_scipy_sum_to_the_bit(n, depth):
    # Each vacuum-leg family member is the scipy slice of its leg against the vacuum/word pair.
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "kernel-slice", n)
    series = FourierSeries(space.alphabet, _signed_values(rng, space._block_starts[min(2, depth) + 1]))
    t = comult(series, space)
    vac = basis_vector(space, Word())
    for leg, slicer in ((1, slice_left), (2, slice_right)):
        family = vacuum_leg_decomposition(t, leg=leg)
        for w in space.words[: min(space.dim, 12)]:
            got = family[w] if w in family else Operator.zero(space)
            assert_same_arrays(got, scipy_csr(slicer([(vac, basis_vector(space, w))], t)))


def test_word_lengths_pass_int16_at_depth_40000():
    # n = 1 admits depths up to 2^18 - 1: the lengths hold 32,768 and more.
    space = FockSpace(Alphabet(1), 40000)
    assert space.lengths[-1] == 40000 and space.lengths.dtype == np.int32
    k, rank = graded.length_rank(space, np.array([0, 32767, 32768, 40000]))
    assert k.tolist() == [0, 32767, 32768, 40000] and rank.tolist() == [0, 0, 0, 0]
    slack = space.depth + 1 - space.lengths
    assert slack[0] == 40001 and slack[-1] == 1 and np.all(np.diff(slack) == -1)
