import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize as sciopt

from ksupport import norms
from ksupport.core import InvalidInputError
from ksupport.norms import (
    NormSpec,
    ksupport_decomposition,
    ksupport_norm,
    ksupport_value,
    lp_norm,
    project_lq_ball,
    project_top_ball,
    top_norm,
)
from ksupport.oracles import ksupport_norm_oracle

from certificate import certificate_parts, certificate_residual

INF = math.inf


def test_normspec_validation():
    spec = NormSpec(2.0, 2)
    assert spec.q == 2.0
    assert NormSpec(1.0, 3).q == INF
    assert NormSpec(INF, 3).q == 1.0
    assert NormSpec(3.0, 1).q == pytest.approx(1.5)
    with pytest.raises(InvalidInputError):
        NormSpec(0.5, 1)
    with pytest.raises(InvalidInputError):
        NormSpec(2.0, 0)
    with pytest.raises(InvalidInputError):
        NormSpec(2.0, 3).check_dim(2)


def test_lp_norm_examples():
    assert lp_norm([3, 4], 2) == pytest.approx(5.0)
    assert lp_norm([3, -1, 2], INF) == 3.0
    assert lp_norm([1, 1, 1, 1], 1) == 4.0
    with pytest.raises(InvalidInputError):
        lp_norm([1.0], 0.9)


def test_top_norm_examples():
    assert top_norm([3, -1, 2], NormSpec(INF, 2)) == 5.0  # q = 1, two largest
    rng = np.random.default_rng(0)
    for _ in range(20):
        y = rng.standard_normal(5)
        p = float(rng.choice([1.0, 2.0, INF, 1.5]))
        assert top_norm(y, NormSpec(p, 1)) == pytest.approx(np.abs(y).max(), abs=1e-15)
    assert top_norm([3, -1, 2], NormSpec(2.0, 3)) == pytest.approx(math.sqrt(14))


def test_top_norm_partial_sort_is_bit_identical():
    # the partial sort of the top k gives the very value of the full-sort formula
    rng = np.random.default_rng(21)
    for i in range(600):
        d = int(rng.integers(1, 40))
        y = rng.integers(-3, 4, d).astype(float) if i % 2 else rng.standard_normal(d)
        for p in (1.0, 1.5, 2.0, 3.0, 7.0, INF):
            spec = NormSpec(p, int(rng.integers(1, d + 1)))
            want = norms._lp_of_abs(np.sort(np.abs(y))[::-1][: spec.k], spec.q)
            assert top_norm(y, spec) == want


def test_ksupport_closed_forms():
    assert ksupport_norm([1, 1, 1], NormSpec(INF, 2)).value == 1.5
    r = ksupport_norm([1, 1, 1], NormSpec(2.0, 2))
    assert r.value == pytest.approx(3 / math.sqrt(2), abs=1e-12)
    assert r.method == "symmetry_reduction"
    assert ksupport_norm([3, 4], NormSpec(2.0, 1)).value == 7.0
    assert ksupport_norm([0.0, 0.0], NormSpec(2.0, 1)).value == 0.0
    zero = ksupport_norm([0.0, 0.0, 0.0], NormSpec(2.0, 2))
    assert (zero.value, zero.method, zero.certified_gap) == (0.0, "closed_form", 0.0)


def test_ksupport_degenerate_agreement_exact():
    rng = np.random.default_rng(1)
    for _ in range(60):
        d = int(rng.integers(2, 9))
        x = rng.standard_normal(d) * rng.uniform(0.1, 5)
        k = int(rng.integers(1, d + 1))
        p = float(rng.choice([1.0, 2.0, INF, 1.8]))
        assert ksupport_value(x, NormSpec(1.0, k)) == np.abs(x).sum()
        assert ksupport_value(x, NormSpec(p, 1)) == np.abs(x).sum()
        assert ksupport_value(x, NormSpec(p, d)) == pytest.approx(lp_norm(x, p), abs=1e-12)


def test_norm_axioms_sampled():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d + 1))
        p = float(rng.choice([1.0, 2.0, INF, 1.5, 3.0]))
        spec = NormSpec(p, k)
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        c = float(rng.uniform(-3, 3))
        for norm in (lambda v: top_norm(v, spec), lambda v: ksupport_value(v, spec)):
            assert norm(c * x) == pytest.approx(abs(c) * norm(x), abs=1e-9)
            assert norm(x + y) <= norm(x) + norm(y) + 1e-9


def test_monotone_in_k_and_sandwich():
    rng = np.random.default_rng(3)
    for _ in range(60):
        d = int(rng.integers(2, 8))
        p = float(rng.choice([2.0, INF, 1.5, 3.0]))
        x = rng.standard_normal(d)
        tops = [top_norm(x, NormSpec(p, k)) for k in range(1, d + 1)]
        ksps = [ksupport_value(x, NormSpec(p, k)) for k in range(1, d + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(tops, tops[1:]))
        assert all(a + 1e-12 >= b for a, b in zip(ksps, ksps[1:]))
        for k in range(1, d + 1):
            v = ksupport_value(x, NormSpec(p, k))
            assert lp_norm(x, p) - 1e-12 <= v <= np.abs(x).sum() + 1e-12


def test_duality_pairing_sampled():
    rng = np.random.default_rng(4)
    for _ in range(300):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d + 1))
        p = float(rng.choice([1.0, 2.0, INF, 1.5]))
        spec = NormSpec(p, k)
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        assert float(x @ y) <= ksupport_value(x, spec) * top_norm(y, spec) + 1e-9


def test_ksupport_value_large_p_does_not_overflow():
    # the pooled tail mean 2 exceeds the largest entry 1; its p-th power overflowed
    spec = NormSpec(1e6, 2)
    for value in (ksupport_value([1, 1, 1, 1], spec), ksupport_norm([1, 1, 1, 1], spec).value):
        assert value == pytest.approx(2.0 * 2.0**1e-6, rel=1e-12)


def test_ksupport_certificate_is_scale_free():
    x = np.random.default_rng(0).standard_normal(6)
    for scale in (1.0, 1e-300, 1e200):
        rep = ksupport_norm(scale * x, NormSpec(2.0, 3))
        assert rep.certified_gap <= 1e-9 * rep.value


def test_ksupport_certificate_gap_small():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = int(rng.integers(3, 7))
        k = int(rng.integers(2, d))
        x = rng.standard_normal(d)
        rep = ksupport_norm(x, NormSpec(2.0, k))
        assert rep.certified_gap >= 0.0
        assert rep.certified_gap <= 1e-7


def test_ksupport_certificate_gap_at_scale():
    # the pooled tail certifies the value from above, so the gap is the
    # rounding of the dual pairing at every d
    rng = np.random.default_rng(16)
    for d, k in ((50, 10), (10_000, 100), (100_000, 10_000)):
        x = rng.standard_normal(d)
        for p in (1.5, 2.0, 3.0):
            rep = ksupport_norm(x, NormSpec(p, k))
            assert rep.method == "symmetry_reduction"
            assert rep.certified_gap <= 1e-12 * rep.value
    # tied integer entries: any sorting order scatters the same maximizer,
    # bit for bit the one the stable order gives
    x = rng.integers(1, 6, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    for p in (1.5, 2.0, 3.0):
        spec = NormSpec(p, 10_000)
        rep = ksupport_norm(x, spec)
        assert rep.certified_gap <= 1e-12 * rep.value
        _, y = norms._reduced_ksupport(x, spec)
        stable = np.empty(x.size)
        stable[np.argsort(-np.abs(x), kind="stable")] = np.sort(np.abs(y))[::-1]
        assert np.array_equal(y, np.sign(x) * stable)


def test_ksupport_certificate_check_raises(monkeypatch):
    # a pooled tail whose mean falls below a tail entry certifies nothing
    pooled = norms._pooled_tail
    monkeypatch.setattr(norms, "_pooled_tail", lambda top, rest: (0, 0.5 * pooled(top, rest)[1]))
    with pytest.raises(ArithmeticError):
        ksupport_norm([3.0, 2.0, 1.0, 0.5], NormSpec(2.0, 2))


def _check_witness(x, spec):
    weights, atoms = ksupport_decomposition(x, spec)
    value = ksupport_value(x, spec)
    assert weights.min() >= 0.0 and abs(weights.sum() - 1.0) <= 1e-14
    assert 1 <= weights.size <= x.size + 1
    assert np.max(np.abs(weights @ atoms - x)) <= 1e-12 * max(np.abs(x).max(), 1.0)
    assert all(np.count_nonzero(a) <= spec.k for a in atoms)
    assert all(abs(lp_norm(a, spec.p) - value) <= 1e-12 * max(value, 1.0) for a in atoms)
    return weights, atoms


def test_ksupport_decomposition_witness():
    rng = np.random.default_rng(18)
    for i in range(300):
        d = int(rng.integers(1, 60))
        x = rng.standard_normal(d) * 10.0 ** int(rng.integers(-3, 4))
        if i % 3 == 1:  # ties
            x = rng.integers(-3, 4, d).astype(float)
        elif i % 3 == 2:  # 30 % zeros
            x[rng.random(d) < 0.3] = 0.0
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            for k in {1, d, int(rng.integers(1, d + 1))}:
                _check_witness(x, NormSpec(p, k))
    # m = 0: at most k nonzero entries are their own single atom
    for x, k in (([0.0, -2.0, 0.0, 1.0], 3), ([0.0, 0.0], 1), ([5.0, 0.0, 0.0, 0.0], 3)):
        weights, atoms = _check_witness(np.array(x), NormSpec(2.0, k))
        assert weights.tolist() == [1.0] and atoms.tolist() == [x]
    # three equal entries at k = 2 split into the three pairs
    weights, atoms = _check_witness(np.ones(3), NormSpec(2.0, 2))
    assert np.allclose(weights, 1 / 3) and sorted(np.count_nonzero(a) for a in atoms) == [2, 2, 2]


def test_ksupport_decomposition_cost_matches_oracle():
    rng = np.random.default_rng(19)
    for i in range(8):
        d = int(rng.integers(2, 9))
        spec = NormSpec((1.5, 2.0, 3.0, INF)[i % 4], int(rng.integers(1, min(3, d) + 1)))
        x = rng.integers(-3, 4, d).astype(float) if i % 2 else rng.standard_normal(d)
        weights, atoms = ksupport_decomposition(x, spec)
        cost = sum(w * lp_norm(a, spec.p) for w, a in zip(weights, atoms))
        assert abs(cost - ksupport_norm_oracle(x, spec).value) <= 1e-6


def test_reduced_matches_decomposition_oracle():
    rng = np.random.default_rng(6)
    for _ in range(8):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, d + 1))
        p = float(rng.choice([2.0, 1.5, 3.0]))
        x = rng.standard_normal(d)
        spec = NormSpec(p, k)
        if k <= 3:
            want = ksupport_norm_oracle(x, spec).value
        else:  # past the oracle's k <= 3 only at k = d, where the value is the lp norm
            assert k == d
            want = lp_norm(x, p)
        assert ksupport_norm(x, spec).value == pytest.approx(want, abs=1e-6)


def _pava_loop_reference(x: np.ndarray, p: float, k: int) -> tuple[float, np.ndarray]:
    # pool adjacent violators one entry at a time on (s_0, ..., s_{k-2}, sum(s[k-1:]))
    a = np.abs(x)
    order = np.argsort(-a, kind="stable")
    s = a[order]
    blocks: list[list[float]] = []
    for c in [*s[: k - 1], s[k - 1 :].sum()]:
        blocks.append([c, 1])
        while len(blocks) > 1 and blocks[-2][0] * blocks[-1][1] <= blocks[-1][0] * blocks[-2][1]:
            C, n = blocks.pop()
            blocks[-1][0] += C
            blocks[-1][1] += n
    total = sum(n * (C / n) ** p for C, n in blocks)
    u = np.concatenate([np.full(n, (C / n) ** (p - 1)) for C, n in blocks])
    y = np.empty(x.size)
    y[order] = np.append(u, np.full(x.size - k, u[-1]))
    return total ** (1 / p), np.sign(x) * y / total ** ((p - 1) / p)


def test_reduced_matches_pava_loop_on_ties():
    from ksupport.norms import _reduced_ksupport

    rng = np.random.default_rng(11)
    for _ in range(300):
        d = int(rng.integers(3, 9))
        k = int(rng.integers(2, d))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        x = rng.integers(-3, 4, d).astype(float)
        if not x.any():
            continue
        value, y = _reduced_ksupport(x, NormSpec(p, k))
        ref_value, ref_y = _pava_loop_reference(x, p, k)
        assert abs(value - ref_value) <= 1e-12 * ref_value
        assert np.max(np.abs(y - ref_y)) <= 1e-12 * np.max(np.abs(ref_y))
        assert ksupport_value(x, NormSpec(p, k)) == value


def test_oracle_agreement_small():
    rng = np.random.default_rng(7)
    for _ in range(12):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(3, d) + 1))
        p = float(rng.choice([2.0, INF, 1.5, 3.0]))
        spec = NormSpec(p, k)
        x = rng.standard_normal(d)
        o = ksupport_norm_oracle(x, spec)
        assert o.method == "decomposition_oracle"
        assert abs(o.value - ksupport_value(x, spec)) <= 1e-6
        assert o.certified_gap <= 1e-8 + 1e-12
    # integer vectors: repeated magnitudes, zeros and fewer than k nonzeros
    # (the equal-value merges of pool-adjacent-violators)
    fixed = [[3, 3, 3, 0], [2, -2, 1, 1, 0], [0, 0, -3, 0, 0], [1, -1, 1, -1, 1, -1]]
    drawn = [rng.integers(-3, 4, int(rng.integers(3, 7))) for _ in range(8)]
    for i, x in enumerate(fixed + drawn):
        x = np.asarray(x, dtype=float)
        spec = NormSpec((1.5, 2.0, 3.0)[i % 3], min(2 + i % 2, x.size - 1))
        o = ksupport_norm_oracle(x, spec)
        assert abs(o.value - ksupport_value(x, spec)) <= 1e-6
        assert o.certified_gap <= 1e-8 + 1e-12


def test_oracle_at_p1_is_the_l1_norm():
    # p = 1: every block prox is a soft threshold (the clip of the q = inf ball)
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        spec = NormSpec(1.0, int(rng.integers(1, min(3, d) + 1)))
        x = rng.standard_normal(d)
        o = ksupport_norm_oracle(x, spec)
        assert ksupport_value(x, spec) == np.abs(x).sum()
        assert abs(o.value - np.abs(x).sum()) <= 1e-6
        assert o.certified_gap <= 1e-8 + 1e-12


def test_oracle_examples():
    assert ksupport_norm_oracle([1, 0, 0, 0], NormSpec(2.0, 2)).value == pytest.approx(1.0, abs=1e-8)
    assert ksupport_norm_oracle([1, 1, 1], NormSpec(2.0, 2)).value == pytest.approx(
        3 / math.sqrt(2), abs=1e-7
    )
    assert ksupport_norm_oracle([1, 1], NormSpec(INF, 1)).value == pytest.approx(2.0, abs=1e-8)


def test_oracle_scale_guard():
    from ksupport.core import ScaleLimitError

    with pytest.raises(ScaleLimitError):
        ksupport_norm_oracle(np.ones(9), NormSpec(2.0, 2))
    with pytest.raises(ScaleLimitError):
        ksupport_norm_oracle(np.ones(5), NormSpec(2.0, 4))


def _l1_ball_project_by_sort(v: np.ndarray) -> np.ndarray:
    # Duchi-style exact simplex projection on |v|, as an independent reference
    a = np.abs(v)
    if a.sum() <= 1:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, a.size + 1) > css - 1)[0][-1]
    theta = (css[rho] - 1) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def test_project_lq_ball_against_references():
    rng = np.random.default_rng(8)
    for q in (1.0, 1.5, 2.0, 3.0, INF):
        for _ in range(5):
            v = rng.standard_normal(4) * 2
            w = project_lq_ball(v, q)
            qn = np.abs(w).max() if math.isinf(q) else float(np.sum(np.abs(w) ** q)) ** (1 / q)
            assert qn <= 1 + 1e-9
            if math.isinf(q):
                ref = np.clip(v, -1, 1)
            elif q == 1.0:
                ref = _l1_ball_project_by_sort(v)
            else:
                # SLSQP reference (constraint smooth for q > 1)
                res = sciopt.minimize(
                    lambda z: 0.5 * np.sum((z - v) ** 2),
                    w,
                    constraints=[{"type": "ineq", "fun": lambda z: 1 - np.sum(np.abs(z) ** q)}],
                    method="SLSQP",
                    options={"ftol": 1e-14, "maxiter": 500},
                )
                ref = res.x
            assert np.max(np.abs(w - ref)) <= 5e-6
    # q = 1 with ties, zeros and a 1-sparse vector, against hand-computed projections
    cases = [
        ([1.0, 1.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]),
        ([2.0, -2.0, 1.0], [0.5, -0.5, 0.0]),
        ([0.0, -3.0, 0.0], [0.0, -1.0, 0.0]),
        ([1.0, 1.0, 1.0, 1.0], [0.25, 0.25, 0.25, 0.25]),
        ([0.0, 0.5, -0.5], [0.0, 0.5, -0.5]),
        ([3.0, 3.0, 0.5, -0.5, 0.0], [0.5, 0.5, 0.0, 0.0, 0.0]),
    ]
    for v, want in cases:
        w = project_lq_ball(np.array(v), 1.0)
        assert np.max(np.abs(w - want)) <= 1e-15
        assert np.max(np.abs(w - _l1_ball_project_by_sort(np.array(v)))) <= 1e-15


def test_project_lq_ball_rows_match_vectors():
    # a 2-D input is projected row by row, each row as the 1-D call would
    rng = np.random.default_rng(12)
    for d in (1, 2, 3, 6):
        rows = [
            rng.standard_normal(d) * 3,
            rng.standard_normal(d) * 0.1,  # inside every ball of this q range
            np.zeros(d),
            np.full(d, -1.5),  # exactly tied
            rng.integers(-2, 3, d).astype(float),  # ties and zeros
            rng.standard_normal(d) * 50,
        ]
        v = np.array(rows + [rng.standard_normal(d) * 2 for _ in range(6)])
        for q in (1.0, 1.5, 2.0, 3.0, 4.0, INF):
            w = project_lq_ball(v, q)
            assert w.shape == v.shape
            for row, got in zip(v, w):
                want = project_lq_ball(row, q)
                if q == 2.0:  # the row norms are reduced in another order than the 1-D norm
                    assert np.all(np.abs(got - want) <= 4e-16 * np.abs(want))
                else:
                    assert got.tobytes() == want.tobytes(), (q, row)


def test_project_lq_ball_rejects_invalid_input():
    cases = [
        ([np.nan, 1.0], 1.5),
        ([np.inf, 1.0], 1.5),
        ([1.0, -np.inf], 2.0),
        ([], 2.0),
        (np.ones((2, 2, 2)), 2.0),
        (1.0, 2.0),
        ([1.0, 2.0], 0.5),
        ([1.0, 2.0], np.nan),
    ]
    for v, q in cases:
        with pytest.raises(InvalidInputError):
            project_lq_ball(np.asarray(v, dtype=float), q)


def test_project_lq_ball_near_the_largest_float():
    # entries near 1e300 project; where the multiplier's bracket overflows, a typed error
    for q in (1.5, 3.0, 4.0):
        want = 2.0 ** (-1.0 / q)
        w = project_lq_ball(np.array([1e300, -1e300, 0.0]), q)
        assert np.max(np.abs(w - [want, -want, 0.0])) <= 1e-15, q
        w = project_lq_ball(np.array([[1e300, -1e300, 0.0], [0.5, 0.0, 0.0]]), q)
        assert np.max(np.abs(w - [[want, -want, 0.0], [0.5, 0.0, 0.0]])) <= 1e-15, q
        with pytest.raises(InvalidInputError):
            project_lq_ball(np.array([1.7e308, -1.7e308, 0.0]), q)
        with pytest.raises(InvalidInputError):
            project_lq_ball(np.array([[0.5, 0.0, 0.0], [1.7e308, 0.0, 1.7e308]]), q)


def test_project_top_ball_examples():
    spec = NormSpec(2.0, 2)
    y0 = np.array([0.1, 0.2, 0.1])
    assert project_top_ball(y0, spec).tolist() == y0.tolist()
    y = project_top_ball([2.0, 0.0, 0.0], spec)
    assert np.max(np.abs(y - [1, 0, 0])) <= 1e-8
    y = project_top_ball([2.0, 2.0], NormSpec(INF, 1))
    assert np.max(np.abs(y - [1, 1])) <= 1e-8


def test_project_top_ball_against_slsqp():
    rng = np.random.default_rng(9)
    from ksupport.core import k_subsets

    for trial in range(8):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, d + 1))
        p = float(rng.choice([2.0, INF, 1.5]))
        spec = NormSpec(p, k)
        q = spec.q
        y0 = rng.standard_normal(d) * 2
        got = project_top_ball(y0, spec)
        assert top_norm(got, spec) <= 1 + 1e-9
        cons = []
        for K in k_subsets(d, k):
            idx = np.array(K) - 1
            if math.isinf(q):
                for i in idx:
                    cons.append({"type": "ineq", "fun": lambda z, i=i: 1 - abs(z[i])})
            else:
                cons.append(
                    {"type": "ineq", "fun": lambda z, idx=idx: 1 - np.sum(np.abs(z[idx]) ** q)}
                )
        res = sciopt.minimize(
            lambda z: 0.5 * np.sum((z - y0) ** 2),
            got,
            constraints=cons,
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 500},
        )
        assert np.max(np.abs(got - res.x)) <= 1e-5


def test_projection_variational_inequality():
    rng = np.random.default_rng(10)
    spec = NormSpec(2.0, 2)
    for _ in range(10):
        d = 4
        y0 = rng.standard_normal(d) * 3
        proj = project_top_ball(y0, spec)
        for _ in range(50):
            z = rng.standard_normal(d)
            z = z / max(1.0, top_norm(z, spec))
            assert float((y0 - proj) @ (z - proj)) <= 1e-6


def _seeded_draws_outside_the_ball():
    # seeded d <= 7 cases with 1 < k < d at every p, all outside the ball;
    # odd cases are integer vectors with ties and zeros
    rng = np.random.default_rng(15)
    draws = []
    for p in (1.0, 1.5, 2.0, 3.0, INF):
        for i in range(6):
            d = int(rng.integers(3, 8))
            spec = NormSpec(p, int(rng.integers(2, d)))
            y = rng.integers(-3, 4, d).astype(float) if i % 2 else 2.0 * rng.standard_normal(d)
            assert top_norm(y, spec) > 1
            draws.append((y, spec))
    return draws


def test_project_top_ball_certified_on_seeded_draws():
    draws = _seeded_draws_outside_the_ball()
    assert len(draws) == 30
    for y, spec in draws:
        assert certificate_residual(y, project_top_ball(y, spec), spec) <= 1e-13, (y, spec)


def test_projection_certificate_rejects_near_misses():
    # on the seeded draws the certificate rejects points near the projection:
    # w shrunk by a relative 1e-9, the radial point y / top_norm(y), and the
    # level map at theta moved by a relative 1e-9.  A mutant within 1e-12 of w
    # is not counted; the minimum counts keep the test from checking nothing
    counts = {"shrink or radial": 0, "level": 0}
    for y, spec in _seeded_draws_outside_the_ball():
        w = project_top_ball(y, spec)
        a = np.abs(y)
        theta, t, c = norms._top_ball_level(a, spec)
        mutants = {
            "shrink or radial": [w * (1.0 - 1e-9), y / top_norm(y, spec)],
            "level": [norms._level_map(y, a, theta * s, t, c, spec.q) for s in (1.0 - 1e-9, 1.0 + 1e-9)],
        }
        for kind, points in mutants.items():
            for m in points:
                if np.max(np.abs(m - w)) > 1e-12:
                    counts[kind] += 1
                    assert certificate_residual(y, m, spec) > 1e-13, (kind, y, spec)
    assert counts["shrink or radial"] >= 58 and counts["level"] >= 52, counts


def test_project_top_ball_support_function_certificate():
    # y - w is in the normal cone of the ball at w: <y - w, w> is the support
    # function of the ball at y - w, which is the k-support norm
    rng = np.random.default_rng(13)
    for d in (5, 50, 1000, 100_000):
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            k = 10_000 if d == 100_000 else int(rng.integers(1, d + 1))
            spec = NormSpec(p, k)
            y = rng.standard_normal(d) * rng.uniform(2.0, 10.0)
            excess, gap, ks = certificate_parts(y, project_top_ball(y, spec), spec)
            assert excess <= 1e-12
            assert ks > 0
            assert gap <= 1e-10 * ks


def test_project_top1_ball_examples():
    # hand-computed q = 1 projections, one per exit of the level search
    cases = [
        # full tie: every entry pools at the level 1/6
        ([2 / 3, 2 / 3] + [1 / 3] * 45, 6, [1 / 6] * 47),
        # a[k] = 0: the l1 projection of the top k, which is that of the whole vector
        ([3.0, 1.0, 0.0, 0.0], 2, [1.0, 0.0, 0.0, 0.0]),
        # the l1 projection of the top k stays above a[k] = 0.25
        ([1.25, -1.0, 0.25], 2, [0.625, -0.375, 0.25]),
        # the l1 projection of the whole vector has fewer than k nonzeros
        ([2.0, 1.5, 0.125, -0.125, 0.125], 3, [0.75, 0.25, 0.0, 0.0, 0.0]),
        # the level is the tail entry 0.125: a root at a tail breakpoint
        ([0.25, 1.0, -0.125, 0.5, 0.875], 3, [0.125, 0.5, -0.125, 0.125, 0.375]),
        # k = d: the l1 projection
        ([1.0, -0.75, 0.5], 3, [7 / 12, -1 / 3, 1 / 12]),
    ]
    for y, k, want in cases:
        w = project_top_ball(y, NormSpec(INF, k))
        assert np.max(np.abs(w - want)) <= 1e-15


def test_project_top_ball_curved_examples():
    # one hand-checkable case per branch of the level search at 1 < q < inf,
    # against a closed form (at 1e-14 unless a case names its own bound) or,
    # with want None, the certificate at 1e-13
    def lq_unit(n, p):  # n equal entries on the unit lq sphere
        return n ** (-1.0 / NormSpec(p, 1).q)

    cases = [
        # the lq projection of the top k stays above a[k] = 0.5
        ([3.0, -4.0, 0.5], NormSpec(2.0, 2), [0.6, -0.8, 0.5]),
        # fewer than k nonzero entries: the multiplier sees only the positive ones
        ([2.0, -2.0, 0.0, 0.0], NormSpec(5.0, 3), [lq_unit(2, 5.0), -lq_unit(2, 5.0), 0.0, 0.0]),
        ([2.0, -2.0, 0.0, 0.0], NormSpec(3.0, 3), [lq_unit(2, 3.0), -lq_unit(2, 3.0), 0.0, 0.0]),
        # two nonzero entries at k = 4: y / ||y||
        ([0.0, 0.0, 0.0, 3.0, 2.0], NormSpec(2.0, 4), [0.0, 0.0, 0.0, 3.0 / 13**0.5, 2.0 / 13**0.5], 1e-15),
        ([3.0, 1.0, 0.0, 0.0], NormSpec(5.0, 3), None),
        ([0.0, 1.0, 0.0, 3.0], NormSpec(3.0, 3), None),
        # an interior level 0.6 with a tied block: t = 1.2, c = 2, and 2.4 / (1 + c) = 0.8
        ([1.0, -2.4, 1.0, -1.0], NormSpec(2.0, 2), [0.6, -0.8, 0.6, -0.6]),
        ([2.4, 1.0, 1.0, 1.0, 0.2], NormSpec(3.0, 2), None),
        ([0.2, 1.0, -1.0, 1.0, 2.4], NormSpec(1.5, 2), None),
        # k = d: the lq ball
        ([3.0, -4.0], NormSpec(2.0, 2), [0.6, -0.8]),
        ([2.0, -2.0, 2.0], NormSpec(3.0, 3), [lq_unit(3, 3.0), -lq_unit(3, 3.0), lq_unit(3, 3.0)]),
    ]
    for y, spec, want, *bound in cases:
        w = project_top_ball(y, spec)
        if want is None:
            assert certificate_residual(y, w, spec) <= 1e-13, (y, spec)
        else:
            assert np.max(np.abs(w - want)) <= (bound[0] if bound else 1e-14), (y, spec)
    # a tie at the bracket end: at theta = a[k] no entry lies above the level, and
    # every key of the pooled-start search equals its bound up to rounding
    for spec in (NormSpec(1.5, 100), NormSpec(4.0, 100)):
        w = project_top_ball([0.6] * 101 + [0.0] * 3, spec)
        assert np.max(np.abs(w[:101] - lq_unit(100, spec.p))) <= 1e-15, spec
        assert not w[101:].any(), spec


def test_top_level_matches_pooled_tail_from_any_start():
    # the level (theta, t, c) of the projection at 1 < q < inf: t is the pooled
    # tail mean of (a - theta)_+, and Newton started anywhere in its bracket
    # returns the level of the cold start
    rng = np.random.default_rng(23)
    newton = 0
    for i in range(400):
        d = int(np.exp(rng.uniform(np.log(3), np.log(1e5 if i % 50 == 0 else 300))))
        k = 2 if i % 2 else d - 1
        q = float(rng.choice([1.25, 1.5, 2.0, 3.0, 5.0]))
        if i % 3 == 0:  # integer ties
            a = rng.integers(0, 5, d).astype(float)
        elif i % 3 == 1:  # zeros
            a = np.abs(rng.standard_normal(d)) * (rng.random(d) < 0.7)
        else:
            a = rng.lognormal(0.0, 1.0, d)
        a[0] = max(a[0], 1.0)
        a = -np.sort(-a)
        a *= rng.uniform(1.05, 20.0) / norms._lp_of_abs(a[:k], q)
        theta, t, c = norms._top_level(a, k, q)
        hi = min(a[k], 1.0)
        if theta == a[k] and t == 0.0:  # the lq projection of the top k: no search
            continue
        newton += 1
        j, mean = norms._pooled_tail(np.maximum(a[:k] - theta, 0.0), float(np.maximum(a[k:] - theta, 0.0).sum()))
        assert abs(mean - t) <= 1e-13 * t, (i, mean, t)
        assert c == t / theta ** (q - 1.0)
        # t moves by (n - j) / (k - j) times any move of theta
        slope = np.count_nonzero(a > theta) - j
        for start in (hi * 1e-6, hi / 2, hi * (1.0 - 2.0**-52), theta):
            theta1, t1, _ = norms._top_level(a, k, q, start)
            assert abs(theta1 - theta) <= 1e-14 * theta, (i, start)
            assert abs(t1 - t) <= 1e-14 * (t + slope / (k - j) * theta), (i, start)
    assert newton >= 200


def test_top1_level_from_any_start_is_bitwise_cold(monkeypatch):
    # the q = 1 Newton search on the line of each piece returns the cold level bit
    # for bit, at every start and on both early exits; started at the cold level it
    # makes at most one Newton evaluation
    def bits(level):
        return np.array(level).tobytes()

    evaluations = []
    newton = norms._newton_increasing

    def counted(fun, lo, hi, x, ev):
        def counted_fun(theta):
            evaluations[-1] += 1
            return fun(theta)

        evaluations.append(0)
        return newton(counted_fun, lo, hi, x, ev)

    monkeypatch.setattr(norms, "_newton_increasing", counted)
    rng = np.random.default_rng(31)
    seen = {"top k": 0, "whole vector": 0, "k = d": 0, "search": 0, "long tail": 0}
    for i in range(400):
        d = int(np.exp(rng.uniform(np.log(3), np.log(1e5 if i % 25 == 0 else 3000))))
        k = [2, d - 1, max(d // 2, 2), d][i % 4]
        if i % 3 == 0:  # integer ties
            a = rng.integers(0, 5, d).astype(float)
        elif i % 3 == 1:  # zeros
            a = rng.lognormal(0.0, 1.0, d) * (rng.random(d) < 0.6)
        else:
            a = rng.lognormal(0.0, 1.0, d)
        a[0] = max(a[0], 1.0)
        a = -np.sort(-a)
        a *= float(rng.choice([1.01, 1.5, 4.0, 30.0])) / a[:k].sum()
        cold = norms._top1_level(a, k)
        starts = []
        if k == d:
            seen["k = d"] += 1
        elif cold[0] == 0.0 < cold[1]:
            seen["whole vector"] += 1
        elif cold[1] == 0.0:
            seen["top k"] += 1
        else:
            seen["search"] += 1
            seen["long tail"] += d - k > 1024
            theta = cold[0]
            starts = [theta, theta * (1.0 - 1e-3), theta * (1.0 + 1e-3)]
            evaluations.clear()
            norms._top1_level(a, k, theta)
            assert evaluations[0] <= 1, (i, d, k, evaluations)
        for start in [0.0, 1e-12, float(a[min(k, d - 1)]), float(a[0]), float(rng.uniform(0.0, a[0]))] + starts:
            assert bits(norms._top1_level(a, k, start)) == bits(cold), (i, d, k, start)
    assert min(seen.values()) >= 3, seen


def test_top1_level_closed_form_is_the_least_line_root():
    # on a piece whose ends straddle the root (n tail entries above the level), the
    # level is the least root over every line s < k, bit for bit, though the search
    # reads only the lines it steps on
    def F(a, C, k, theta, n):  # sum_{i<k} min(a_i - theta, t) - (C[k] - 1), n tail entries above theta
        t = (C[k + n] - 1.0 - n * theta) / k
        s = (-a[:k]).searchsorted(-(theta + t))
        return s * t + 1.0 - C[s] - (k - s) * theta

    def least_root(C, k, n):
        total = float(C[k + n]) - 1.0
        theta = min((s * total - k * (float(C[s]) - 1.0)) / (s * n + k * (k - s)) for s in range(k))
        return theta, (total - n * theta) / k

    rng = np.random.default_rng(41)
    checked = 0
    for i in range(600):
        d = int(rng.integers(4, 300))
        k = min([2, int(rng.integers(3, 33)), int(rng.integers(33, 80)), d - 1][i % 4], d - 1)
        unit = float(rng.choice([1.0, 0.125, 0.1, 1 / 3]))
        a = -np.sort(-np.abs(rng.integers(-4, 5, d) * unit))
        if not a[:k].any():
            continue
        a *= 2.0 ** int(rng.integers(-3, 3)) if i % 2 else float(rng.choice([1.01, 1.5, 4.0])) / a[:k].sum()
        if a[:k].sum() <= 1.0:
            continue
        C = np.concatenate(([0.0], np.cumsum(a)))
        m = np.arange(d - k + 1)
        Fm = F(a, C, k, np.append(a, 0.0)[k + m], m)  # F(a[k + m], m); a[d] reads 0
        # the pieces whose ends straddle 0 (one, unless ties round F both ways)
        pieces = [n for n in m[1:] if Fm[n] >= 0.0 and (n == 1 or Fm[n - 1] < 0.0)]
        for start in (0.0, float(rng.uniform(0.0, a[0]))):
            theta, t, _ = norms._top1_level(a, k, start)
            if t == 0.0 or theta == 0.0:  # the top k or the whole vector: no piece
                continue
            checked += 1
            assert (theta, t) in [least_root(C, k, n) for n in pieces], (i, d, k, start)
    assert checked >= 300, checked


def test_top1_level_on_tied_tail_breakpoints_is_start_free():
    # entries on a grid of 1/70 tie the tail breakpoints in runs, and the lines of the
    # pieces on either side of a run can each hold a root a few roundings from it (seed
    # 324, d = 43, k = 11); the level is the cold one bit for bit from six starts in
    # (0, a[0]) and from just below and above the cold level
    def bits(level):
        return np.array(level).tobytes()

    searched = 0
    for seed in range(3000):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(10, 80))
        k = int(rng.integers(2, d - 1))
        a = -np.sort(-(rng.integers(0, 8, d) / 70))
        a *= 1.5 / a[:k].sum()
        cold = norms._top1_level(a, k)
        starts = list(rng.uniform(0.0, a[0], 6))
        if cold[0] > 0.0 and cold[1] > 0.0:
            searched += 1
            starts += [cold[0] * 0.99, cold[0] * 1.01]
        for start in starts:
            assert bits(norms._top1_level(a, k, float(start))) == bits(cold), (seed, d, k, start)
    assert searched >= 2500, searched


def test_project_top_ball_at_k_equal_d_is_the_l1_projection():
    rng = np.random.default_rng(43)
    # the smallest entry equals the threshold, so sort and threshold reads it one index early;
    # signed zeros keep their sign
    ys = [np.array([17.0, 3.0, -7.0]) / 18.0, np.array([2.0, -0.0, 0.0, -1.0, 0.5])]
    for i in range(500):
        d = int(rng.integers(2, 60))
        y = rng.integers(-3, 4, d) * float(rng.choice([0.1, 0.25, 1 / 3, 0.5]))
        if i % 2:
            y = rng.lognormal(0.0, 1.0, d) * rng.choice([-1.0, 0.0, 1.0], d)
        ys.append(y)
    for y in ys:
        if np.abs(y).sum() < 1.2:
            continue
        got, want = project_top_ball(y, NormSpec(INF, y.size)), project_lq_ball(y, 1.0)
        assert got.tobytes() == want.tobytes(), y


def test_project_top1_ball_certificate_seeded():
    # ties, zeros and five scales: the projection lies in the ball, and
    # y - w is in its normal cone there (as in the support-function test)
    rng = np.random.default_rng(17)
    for i in range(2000):
        d = int(rng.integers(3, 301))
        spec = NormSpec(INF, int(rng.integers(2, d + 1)))
        y = rng.standard_normal(d) * 10.0 ** int(rng.integers(-2, 3))
        if i % 4 == 1:
            y = rng.integers(-3, 4, d).astype(float)
        elif i % 4 == 2:
            y[rng.random(d) < 0.5] = 0.0
        elif i % 4 == 3:
            y = np.round(y, 1)
        if top_norm(y, spec) <= 1:
            continue
        w = project_top_ball(y, spec)
        assert top_norm(w, spec) <= 1 + 1e-12
        r = y - w
        ks = ksupport_value(r, spec)
        assert abs(ks - float(r @ w)) <= 1e-10 * ks


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_project_top_ball_equivariance(data):
    d = data.draw(st.integers(2, 8))
    k = data.draw(st.integers(1, d))
    p = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, INF]))
    y = np.array(data.draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d)), dtype=float) / 2
    perm = np.array(data.draw(st.permutations(range(d))))
    signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d)))
    spec = NormSpec(p, k)
    w = project_top_ball(y, spec)
    moved = project_top_ball(signs * y[perm], spec)
    assert np.max(np.abs(moved - signs * w[perm])) <= 1e-12
