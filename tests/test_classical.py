import cmath
import importlib.util
import inspect
import math
import os
import random
import textwrap
from dataclasses import replace

import pytest
from scipy.integrate import quad

from ffhyper import classical, errors


def _params(a, b, c, x, **kw):
    return classical.ClassicalFdParams(a, tuple(b), c, tuple(x), **kw)


def test_pochhammer():
    assert classical.pochhammer(3, 0) == 1
    assert classical.pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert classical.pochhammer(0.5, 3) == pytest.approx(1.875)
    assert classical.pochhammer(-2, 4) == 0  # hits the zero factor
    with pytest.raises(ValueError):
        classical.pochhammer(1, -1)


def test_beta_oracles():
    assert classical.beta(2, 3) == pytest.approx(1 / 12)
    assert classical.beta(0.5, 0.5) == pytest.approx(math.pi)
    got, _ = quad(lambda t: t ** 1.5 * (1 - t) ** 2.5, 0, 1,
                  epsabs=1e-12, epsrel=1e-12)
    assert classical.beta(2.5, 3.5) == pytest.approx(got, abs=1e-10)


def test_fd_series_base_cases():
    # all-zero arguments: only the S = 0 term survives
    p = _params(0.3, [0.5, 0.7], 1.1, [0, 0])
    assert classical.fd_series(p) == pytest.approx(1)
    # c = a collapses to a product of binomials: prod (1-x_j)^(-b_j)
    p = _params(0.7, [1, 2], 0.7, [0.5, 0.25], M=200)
    want = (1 - 0.5) ** -1 * (1 - 0.25) ** -2
    assert classical.fd_series(p) == pytest.approx(want, abs=1e-10)


def test_fd_series_single_slot_is_gauss():
    a, b, c, x = 0.4, 0.9, 1.7, -0.35
    p = _params(a, [b], c, [x], M=80)
    acc, term = 0j, 1 + 0j
    for k in range(80):
        acc += term
        term *= (a + k) * (b + k) * x / ((k + 1) * (c + k))
    assert classical.fd_series(p) == pytest.approx(acc, abs=1e-13)


def test_fd_series_slot_permutation():
    p = _params(0.6, [0.5, 1.5, 0.25], 2.2, [0.3, -0.2, 0.45], M=70)
    q = _params(0.6, [0.25, 0.5, 1.5], 2.2, [0.45, 0.3, -0.2], M=70)
    assert abs(classical.fd_series(p) - classical.fd_series(q)) < 1e-12


def test_fd_series_truncation_converged():
    p1 = _params(0.5, [0.5, 0.5], 1.5, [0.4, -0.3], M=60)
    p2 = _params(0.5, [0.5, 0.5], 1.5, [0.4, -0.3], M=120)
    assert abs(classical.fd_series(p1) - classical.fd_series(p2)) < 1e-10


def test_divergence_guard():
    with pytest.raises(errors.Diverged):
        classical.fd_series(_params(0.5, [0.5], 1.5, [1.0]))
    with pytest.raises(errors.Diverged):
        classical.fd_series(_params(0.5, [0.5, 0.5], 1.5, [0.2, -1.3]))


def test_domain_violations():
    with pytest.raises(errors.DomainViolation):
        _params(0.5, [0.5], -2, [0.1])  # c non-positive integer
    with pytest.raises(errors.DomainViolation):
        classical.check_integral_formula(_params(0.5, [0.5], 1.5, [0.1]))
    with pytest.raises(errors.DomainViolation):
        classical.check_integral_formula(
            _params(0.5, [0.5, 2.0], 1.5, [0.1, 0.2]))  # Re(b1) < 1
    with pytest.raises(errors.DomainViolation):
        classical.check_mr_reduction(
            _params(0.5, [0.5, 0.5], 1.5, [0.1, 0.2]))  # c != b1 + b2
    with pytest.raises(errors.DomainViolation):
        classical.check_mr_reduction(_params(0.5, [0.5, 1.0], 1.5, [0.1, 1.0]))
    with pytest.raises(ValueError):
        _params(0.5, [0.5, 0.5], 1.5, [0.1])  # len mismatch
    with pytest.raises(ValueError):
        _params(0.5, [0.5], 1.5, [0.1], M=0)


@pytest.mark.parametrize("field, args", [
    ("a", (float("nan"), [1.5, 1.2], 3.5, [0.3, 0.1])),
    ("b", (0.5, [float("nan"), 1.2], 3.5, [0.3, 0.1])),
    ("b", (0.5, [1.5, complex(1, float("inf"))], 3.5, [0.3, 0.1])),
    ("c", (0.5, [1.5, 1.2], float("-inf"), [0.3, 0.1])),
    ("x", (0.5, [1.5, 1.2], 3.5, [0.3, float("nan")])),
    ("x", (0.5, [1.5, 1.2], 3.5, [float("inf"), 0.1])),
])
def test_non_finite_parameters_are_rejected(field, args):
    # NaN compares false against every domain bound, so it is refused up front
    with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
        _params(*args)


def test_integral_formula_residual():
    p = _params(0.5, [1.25, 1.75, 0.6], 2.4, [0.3, -0.4, 0.2])
    assert classical.check_integral_formula(p) < 1e-8
    # equal first arguments make the inner slot constant in u
    p_eq = _params(0.5, [1.25, 1.75], 2.4, [0.3, 0.3])
    assert classical.check_integral_formula(p_eq) < 1e-12
    # b1 = b2 = 1 strips the u-weights entirely
    p_flat = _params(0.7, [1, 1], 1.9, [0.25, -0.5])
    assert classical.check_integral_formula(p_flat) < 1e-10


def test_integral_formula_complex_parameters():
    p = _params(0.5 + 0.2j, [1.5, 1.25], 2.1 - 0.3j, [0.3, -0.2 + 0.1j])
    assert classical.check_integral_formula(p) < 1e-8


def test_ksum_residual():
    p = _params(0.8, [0.3, 0.9], 1.7, [0.35, -0.45])
    assert classical.check_ksum_formula(p) < 1e-9
    # last argument zero: only the k = 0 term contributes
    p0 = _params(0.8, [0.3, 0.9], 1.7, [0.35, 0.0])
    assert classical.check_ksum_formula(p0) < 1e-12


def test_mr_reduction_residual():
    # arguments chosen so (x_j - x_n)/(1 - x_n) stays inside the unit disk
    b = (0.4, 0.7, 0.15)
    p = _params(0.6, b, sum(b), [0.3, 0.1, -0.4])
    assert classical.check_mr_reduction(p) < 1e-9
    # x_n = 0 leaves the arguments untouched
    p0 = _params(0.6, b, sum(b), [0.2, -0.3, 0.0])
    assert classical.check_mr_reduction(p0) < 1e-13
    # all equal arguments: F_D collapses to (1-x)^(-a) exactly
    pe = _params(0.6, b, sum(b), [0.3, 0.3, 0.3], M=120)
    want = (1 - 0.3) ** -0.6
    assert classical.fd_series(pe) == pytest.approx(want, abs=1e-10)


def test_quadrature_cfg():
    # the tolerances and subinterval limit are module constants, not an argument
    assert (classical.QUAD_EPSABS, classical.QUAD_EPSREL, classical.QUAD_LIMIT) == \
        (1e-12, 1e-12, 200)
    p = _params(0.5, [1.5, 1.5], 2.0, [0.2, -0.1])
    assert classical.check_integral_formula(p) < 1e-8
    with pytest.raises(TypeError):
        classical.check_integral_formula(p, quadrature_cfg=None)


# -- the per-term k-sum and the per-node integrand, which the shared slot
# columns replaced, kept here as the oracles ----------------------------------------


def ksum_per_term(p, K=classical.DEFAULT_K):
    """The k-summation's residual with one F_D^(n-1) series per term."""
    if p.n < 1:
        raise errors.DomainViolation("k-summation needs n >= 1")
    lhs = classical.fd_series(p)
    bn, xn = p.b[-1], p.x[-1]
    acc = 0j
    weight = 1 + 0j
    for k in range(K + 1):
        inner = replace(p, a=p.a + k, b=p.b[:-1], c=p.c + k, x=p.x[:-1])
        acc += weight * classical.fd_series(inner)
        weight *= (p.a + k) * (bn + k) * xn / ((k + 1) * (p.c + k))
    return abs(lhs - acc)


def integral_per_node(p):
    """(residual, rhs) of the integral formula with one F_D^(n-1) series per
    quadrature node."""
    if p.n < 2:
        raise errors.DomainViolation("integral formula needs n >= 2")
    b1, b2 = p.b[0], p.b[1]
    if b1.real < 1 or b2.real < 1:
        raise errors.DomainViolation("quadrature restricted to Re(b1), Re(b2) >= 1")
    lhs = classical.beta(b1, b2) * classical.fd_series(p)
    x1, x2 = p.x[0], p.x[1]
    inner_b = (b1 + b2,) + p.b[2:]

    def integrand(u):
        inner = replace(p, b=inner_b, x=(u * x1 + (1 - u) * x2,) + p.x[2:])
        return u ** (b1 - 1) * (1 - u) ** (b2 - 1) * classical.fd_series(inner)

    rhs, _ = quad(integrand, 0.0, 1.0, epsabs=classical.QUAD_EPSABS,
                  epsrel=classical.QUAD_EPSREL, limit=classical.QUAD_LIMIT, complex_func=True)
    return abs(lhs - rhs), rhs


def _sweep_script():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", "run_classical_checks.py")
    spec = importlib.util.spec_from_file_location("run_classical_checks", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SCRIPT = _sweep_script()
TOL_INTEGRAL, TOL_SERIES = 1e-8, 1e-9


def _draws(draw, n, count, seed=0):
    rng = random.Random(f"{seed}:{n}")
    return [draw(rng, n) for _ in range(count)]


def _integral_with_rhs(monkeypatch, p):
    """(residual, rhs) of classical.check_integral_formula(p), the rhs read off
    its one quad call."""
    seen = []

    def recording(*args, **kw):
        seen.append(quad(*args, **kw))
        return seen[-1]

    with monkeypatch.context() as m:
        m.setattr(classical, "quad", recording)
        residual = classical.check_integral_formula(p)
    assert len(seen) == 1
    return residual, seen[0][0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ksum_equals_per_term_oracle(n):
    # every k re-weights the same n-1 slot coefficients: the arithmetic of
    # one series per term, so the residuals are equal, not close
    for p in _draws(SCRIPT.draw_ksum, n, 3 if n == 4 else 6):
        got = classical.check_ksum_formula(p)
        assert got == ksum_per_term(p) and got < TOL_SERIES, p
    p = _draws(SCRIPT.draw_ksum, n, 1, seed=1)[0]
    for K in (0, 1, 7):
        assert classical.check_ksum_formula(p, K=K) == ksum_per_term(p, K=K)


def test_integral_equals_per_node_oracle_at_n2(monkeypatch):
    # with no fixed slots h is the ratio sequence, and each node sums the
    # same products in the same order as the one-series-per-node integrand
    for p in _draws(SCRIPT.draw_integral, 2, 6):
        got, rhs = _integral_with_rhs(monkeypatch, p)
        assert (got, rhs) == integral_per_node(p) and got < TOL_INTEGRAL, p
    p = _params(0.5 + 0.2j, [1.5, 1.25], 2.1 - 0.3j, [0.3, -0.2 + 0.1j])
    assert _integral_with_rhs(monkeypatch, p) == integral_per_node(p)


@pytest.mark.parametrize("n", [3, 4])
def test_integral_matches_per_node_oracle_at_n3_and_up(monkeypatch, n):
    # h sums the products of the merged column and the fixed slots in another
    # order, so the rhs moves only by rounding
    draws = _draws(SCRIPT.draw_integral, n, 2 if n == 3 else 1)
    if n == 4:
        draws = [replace(p, M=30) for p in draws]
    for p in draws:
        got, rhs = _integral_with_rhs(monkeypatch, p)
        _, want = integral_per_node(p)
        assert abs(rhs - want) < 1e-13 and got < TOL_INTEGRAL, p


BAD_INPUTS = [
    ("x1 on the unit circle", lambda: _params(0.5, [1.5, 1.2, 0.6], 2.4, [1.0, 0.1, 0.2])),
    ("x_n outside the disc", lambda: _params(0.5, [1.5, 1.2], 2.4, [0.1, -1.3j])),
    ("Re(b1) < 1", lambda: _params(0.5, [0.5, 1.2, 0.6], 2.4, [0.3, 0.1, 0.2])),
    ("Re(b2) < 1", lambda: _params(0.5, [1.5, 0.9 + 2j], 2.4, [0.3, 0.1])),
    ("n = 1", lambda: _params(0.5, [1.5], 2.4, [0.3])),
    ("n = 0", lambda: _params(0.5, [], 2.4, [])),
    ("c = -3", lambda: _params(0.5, [1.5, 1.2], -3, [0.3, 0.1])),
    ("c = 0", lambda: _params(0.5, [1.5, 1.2], 0, [0.3, 0.1])),
]


def _outcome(fn, make):
    try:
        fn(make())
    except (errors.FFHyperError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("case, make", BAD_INPUTS, ids=[c for c, _ in BAD_INPUTS])
def test_checks_raise_what_the_oracles_raise(case, make):
    want = _outcome(lambda p: integral_per_node(p)[0], make)
    assert want is not None
    assert _outcome(classical.check_integral_formula, make) == want
    assert _outcome(classical.check_ksum_formula, make) == \
        _outcome(ksum_per_term, make)


def test_ksum_rejects_negative_K():
    p = _params(0.8, [0.3, 0.9], 1.7, [0.35, -0.45])
    for K in (-1, -5):
        with pytest.raises(ValueError, match="K >= 0"):
            classical.check_ksum_formula(p, K=K)


def _mutate(monkeypatch, name, old, new):
    """Replace classical.<name> by a copy of its source with `old` replaced."""
    src = textwrap.dedent(inspect.getsource(getattr(classical, name)))
    assert src.count(old) == 1, (name, old)
    ns = dict(vars(classical))
    exec(compile(src.replace(old, new), classical.__file__, "exec"), ns)
    monkeypatch.setattr(classical, name, ns[name])


def test_integral_mutants_are_caught(monkeypatch):
    draws = _draws(SCRIPT.draw_integral, 3, 2)

    def all_pass():
        return all(classical.check_integral_formula(p) < TOL_INTEGRAL for p in draws)

    assert all_pass()
    for old, new in [
        ("_dot(ratios[i:], w)", "_dot(ratios[i + 1:], w)"),  # ratio offset by one S
        ("_coeffs(p.b[2:], p.x[2:], p.M)", "_coeffs(p.b[3:], p.x[3:], p.M)"),  # slot 3 dropped
        ("xu = u * x1 + (1 - u) * x2", "xu = x1"),  # the varying column at x1
    ]:
        with monkeypatch.context() as m:
            _mutate(m, "check_integral_formula", old, new)
            assert not all_pass(), new
    assert all_pass()


def test_ksum_mutants_are_caught(monkeypatch):
    draws = _draws(SCRIPT.draw_ksum, 3, 2)
    want = [ksum_per_term(p) for p in draws]

    def all_match():
        return [classical.check_ksum_formula(p) for p in draws] == want

    assert all_match()
    for old, new in [
        ("_ratios(p.a + k, p.c + k, len(w))", "_ratios(p.a, p.c, len(w))"),  # not re-weighted per k
        ("_coeffs(p.b[:-1], p.x[:-1], p.M)", "_coeffs(p.b[1:], p.x[1:], p.M)"),  # slot n kept
    ]:
        with monkeypatch.context() as m:
            _mutate(m, "check_ksum_formula", old, new)
            assert not all_match(), new
    assert all_match()
