import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize as sciopt

from ksupport import norms
from ksupport.core import ConvergenceError, InvalidInputError
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
from ksupport.oracles import dual_ascent_ksupport, dykstra_top_ball, ksupport_norm_oracle

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


def test_reduced_matches_full_dual_ascent():
    rng = np.random.default_rng(6)
    for _ in range(8):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, d + 1))
        p = float(rng.choice([2.0, 1.5, 3.0]))
        x = rng.standard_normal(d)
        spec = NormSpec(p, k)
        full = dual_ascent_ksupport(x, spec)
        red = ksupport_norm(x, spec)
        assert full.value == pytest.approx(red.value, abs=1e-6)
        assert full.method == "dual_ascent"


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


def test_dual_ascent_raises_on_cap():
    with pytest.raises(ConvergenceError):
        dual_ascent_ksupport(np.array([1.0, 0.7, 0.3]), NormSpec(2.0, 2), max_iter=1)


def test_project_top_ball_matches_dykstra():
    # seeded d <= 7 cases with 1 < k < d at every p, all outside the ball;
    # odd cases are integer vectors with ties and zeros
    rng = np.random.default_rng(15)
    for p in (1.0, 1.5, 2.0, 3.0, INF):
        for i in range(6):
            d = int(rng.integers(3, 8))
            spec = NormSpec(p, int(rng.integers(2, d)))
            y = rng.integers(-3, 4, d).astype(float) if i % 2 else 2.0 * rng.standard_normal(d)
            assert top_norm(y, spec) > 1
            want = dykstra_top_ball(y, spec, 1e-12)
            assert np.max(np.abs(project_top_ball(y, spec) - want)) <= 1e-9


def test_project_top_ball_support_function_certificate():
    # y - w is in the normal cone of the ball at w: <y - w, w> is the support
    # function of the ball at y - w, which is the k-support norm
    rng = np.random.default_rng(13)
    for d in (5, 50, 1000, 100_000):
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            k = 10_000 if d == 100_000 else int(rng.integers(1, d + 1))
            spec = NormSpec(p, k)
            y = rng.standard_normal(d) * rng.uniform(2.0, 10.0)
            w = project_top_ball(y, spec)
            assert top_norm(w, spec) <= 1 + 1e-12
            r = y - w
            ks = ksupport_value(r, spec)
            assert ks > 0
            assert abs(ks - float(r @ w)) <= 1e-10 * ks


def test_project_top1_ball_examples(monkeypatch):
    # hand-computed q = 1 projections, one per branch of the breakpoint
    # search; that search makes no Newton step
    def no_newton(*args):
        raise AssertionError("Newton search on the q = 1 path")

    monkeypatch.setattr(norms, "_newton_increasing", no_newton)
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
