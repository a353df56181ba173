"""Property-based invariants over randomized systems and expressions."""

import contextlib
import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from lyapcert.averaging import (
    DRIFT_REMAINDER,
    AveragedField,
    GRAD_STEP,
    SigmaTable,
    _prefix_sums,
    _slow_step,
    _window_mean,
    build_averaged_lyapunov,
    check_drift_remainder,
    estimate_average,
    estimate_sigma,
    fit_slow_constants,
    mu,
    nu,
)
from lyapcert import certcheck
from lyapcert.certcheck import (
    DECREASE,
    POS_DEF,
    STRICT_DECREASE,
    TOL_ABS,
    TOL_REL,
    CandidateFunction,
    ConditionReport,
    check_decrease,
    check_positive_definite,
    shell_grid,
)
from lyapcert import converse as converse_module
from lyapcert.converse import (
    _first_min,
    _max_quotient,
    _pair_blocks,
    build_trajectory_converse,
    check_envelope_hypothesis,
    estimate_lipschitz,
    verify_converse,
)
from lyapcert.dynsys import (
    LAMBDA_MAX,
    BatchMap,
    DynSystem,
    ExponentialEnvelope,
    LinearTV,
    SlowFastSamples,
    SlowFastSystem,
    _row_norms,
    _row_squares,
    batch_map,
    fit_exponential_envelope,
    real_array,
    simulate,
    trajectories,
    transitions,
)
from lyapcert.errors import (
    DivergenceError,
    HypothesisViolationError,
    NotExponentiallyStableError,
    SteinSolvabilityError,
)
from lyapcert.frontend import expressions
from lyapcert.frontend.expressions import (
    FUNCTIONS,
    TABLE_TIMES,
    Bin,
    Call,
    Neg,
    Num,
    Ref,
    Time,
    compile_expression,
    compile_map,
    parse_expression,
    pretty,
)
from lyapcert.linearize import (
    BASIN_CONVERGENCE,
    STABLE,
    LocalCertificate,
    certify_local_autonomous,
    numerical_jacobian,
    validate_basin,
)
from lyapcert.rng import Rng
from lyapcert.stein import TvLyapunov, classify_linear, solve_stein_kron
from lyapcert.timescales import (
    CERTIFIED_RATE,
    DECREMENT_DOMINATION,
    RATE_REALIZATION,
    SANDWICH,
    _error_step,
    _stacked_samples,
    certify_semiglobal,
    q_matrix,
    validate_rate,
    verify_composite,
)


def random_matrix(seed: int, n: int, scale: float = 1.0) -> np.ndarray:
    return Rng(seed).matrix(n, n) * scale


def contractive_matrix(seed: int, n: int, rho: float) -> np.ndarray:
    A = random_matrix(seed, n)
    r = max(abs(np.linalg.eigvals(A)))
    if r < 1e-9:
        return A  # nilpotent to working precision; already well inside the disk
    return A * (rho / r)


dims = st.integers(min_value=2, max_value=5)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
rhos = st.floats(min_value=0.05, max_value=0.9)


def phi(ltv, t, t0):
    """Phi(t, t0) from the transition kernel."""
    return transitions(ltv, [t0], t - t0)[0, -1]


class TestCocycle:
    @given(seed=seeds, n=dims, t0=st.integers(0, 6), d1=st.integers(0, 5), d2=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_transition_splits_at_any_midpoint(self, seed, n, t0, d1, d2):
        rng = Rng(seed)
        mats = [rng.matrix(n, n) for _ in range(t0 + d1 + d2 + 1)]
        ltv = LinearTV(n, lambda t: mats[t])
        t1, t2 = t0 + d1, t0 + d1 + d2
        full = phi(ltv, t2, t0)
        split = phi(ltv, t2, t1) @ phi(ltv, t1, t0)
        assert np.linalg.norm(full - split) <= 1e-12 * max(1.0, np.linalg.norm(full))

    @given(seed=seeds, n=dims, t0=st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_empty_interval_is_identity(self, seed, n, t0):
        rng = Rng(seed)
        ltv = LinearTV(n, lambda t: rng.at(t) % 2 * np.eye(n) + np.eye(n))
        assert np.array_equal(phi(ltv, t0, t0), np.eye(n))


def family(seed, n):
    """A(t) = a fresh Gaussian draw per t, scaled by 1/sqrt(n) so that short
    products stay near unit size."""
    return lambda t: Rng(seed + 7919 * int(t)).matrix(n, n) / math.sqrt(n)


class TestTransitionKernel:
    """``transitions`` and the consumers that read it against the
    per-matrix loops they replaced, bit for bit."""

    @pytest.mark.parametrize("n", range(1, 49))
    def test_kernel_norms_and_tail_sum_match_the_per_matrix_loop(self, n):
        ltv = LinearTV(n, family(n, n))
        starts, horizon = [0, 3, 1], 6
        table = transitions(ltv, starts, horizon)
        norms = np.linalg.norm(table, 2, axis=(2, 3))
        for i, t0 in enumerate(starts):
            phi_k = np.eye(n)
            for k in range(horizon + 1):
                assert table[i, k].tobytes() == phi_k.tobytes()
                assert norms[i, k] == float(np.linalg.norm(phi_k, 2))
                phi_k = ltv.matrix(t0 + k) @ phi_k
        # the tail sum of TvLyapunov: acc += Phi' Q Phi with Q = I, term by term
        tv = TvLyapunov(ltv, ExponentialEnvelope(1.0, 2.0))
        for t, P in zip((0, 2), tv([0, 2])):
            phi_k, acc = np.eye(n), np.zeros((n, n))
            for tau in range(t, t + tv.horizon + 1):
                acc += phi_k.T @ np.eye(n) @ phi_k
                phi_k = ltv.matrix(tau) @ phi_k
            assert P.tobytes() == tv(t).tobytes() == (0.5 * (acc + acc.T)).tobytes()

    @given(reads=st.lists(st.lists(st.integers(0, 12), max_size=8), min_size=1, max_size=5),
           n=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_marked_family_reads_missing_times_in_one_call(self, reads, n):
        A = family(n, n)
        calls, plain_calls = [], []
        marked = LinearTV(n, BatchMap(lambda ts: calls.append(ts.tolist()) or np.array([A(t) for t in ts])))
        plain = LinearTV(n, lambda t: plain_calls.append(t) or A(t))
        seen = {}
        for times in reads:
            missing = [t for t in dict.fromkeys(times) if t not in seen]
            seen.update(dict.fromkeys(missing))
            before = len(calls)
            got = marked.matrices(times)
            assert got.tobytes() == plain.matrices(times).tobytes()
            assert got.shape == (len(times), n, n)
            assert calls[before:] == ([missing] if missing else [])
        assert plain_calls == list(seen)


class TestSteinInvariants:
    @given(seed=seeds, n=dims, rho=rhos)
    @settings(max_examples=60, deadline=None)
    def test_residual_and_decrement(self, seed, n, rho):
        A = contractive_matrix(seed, n, rho)
        B = random_matrix(seed + 1, n)
        Q = B @ B.T + np.eye(n)  # positive definite by construction
        sol = solve_stein_kron(A, Q)
        residual = np.linalg.norm(A.T @ sol.P @ A - sol.P + Q, ord="fro")
        assert residual <= 1e-9 * np.linalg.norm(Q, ord="fro") * max(
            1.0, np.linalg.norm(sol.P, ord="fro")
        )
        assert sol.positive_definite
        x = Rng(seed + 2).vector(n)
        dv = float((A @ x) @ sol.P @ (A @ x)) - float(x @ sol.P @ x)
        assert dv == pytest.approx(-float(x @ Q @ x), rel=1e-9, abs=1e-9)

    @given(seed=seeds, n=dims)
    @settings(max_examples=60, deadline=None)
    def test_classification_agrees_with_solver(self, seed, n):
        A = random_matrix(seed, n, scale=1.5)
        report = classify_linear(A)
        if report.solvable:
            sol = solve_stein_kron(A, np.eye(n))
            residual = np.linalg.norm(A.T @ sol.P @ A - sol.P + np.eye(n), ord="fro")
            assert residual <= 1e-6 * max(1.0, np.linalg.norm(sol.P, ord="fro"))
        else:
            with pytest.raises(SteinSolvabilityError):
                solve_stein_kron(A, np.eye(n))

    @given(a=st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_reciprocal_pairs_are_never_solvable(self, a):
        A = np.diag([a, 1.0 / a])
        report = classify_linear(A)
        assert not report.solvable
        with pytest.raises(SteinSolvabilityError):
            solve_stein_kron(A, np.eye(2))


# weights keep the trees small enough to evaluate but deep enough to
# exercise every precedence level
def expression_trees(depth=3):
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(
            lambda v: repr(float(v))
        ),
        st.sampled_from(["t", "x[0]", "x[1]", "y[0]", "a", "b_2"]),
    )

    def extend(children):
        binary = st.tuples(children, st.sampled_from("+-*/^"), children).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})"
        )
        unary = children.map(lambda s: f"(-{s})")
        call1 = st.tuples(st.sampled_from(["abs", "sin", "cos", "tanh"]), children).map(
            lambda t: f"{t[0]}({t[1]})"
        )
        call2 = st.tuples(children, children).map(lambda t: f"min({t[0]},{t[1]})")
        return st.one_of(binary, unary, call1, call2)

    return st.recursive(leaf, extend, max_leaves=12)


class TestExpressionRoundTrip:
    @given(src=expression_trees())
    @settings(max_examples=200, deadline=None)
    def test_pretty_parse_is_identity_on_trees(self, src):
        tree = parse_expression(src)
        text = pretty(tree)
        tree2 = parse_expression(text)
        assert tree2 == tree
        assert pretty(tree2) == text


PARAMS = {"a": 0.7, "b": -1.3}


def reference_evaluate(node, t, x, y=None, params=None):
    """Scalar tree walk with the evaluation order and arithmetic the
    compiled closures must reproduce bit for bit."""
    params = params or {}
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Time):
        return float(t)
    if isinstance(node, Ref):
        if node.index is None:
            if node.name not in params:
                raise ValueError(f"unbound parameter '{node.name}'")
            return float(params[node.name])
        if node.name == "x":
            return float(x[node.index])
        if node.name == "y":
            if y is None:
                raise ValueError("expression references y but no fast state was given")
            return float(y[node.index])
        raise ValueError(f"unknown state vector '{node.name}'")
    if isinstance(node, Neg):
        return -reference_evaluate(node.arg, t, x, y, params)
    if isinstance(node, Call):
        fn = FUNCTIONS[node.fn][1]
        return float(fn(*(reference_evaluate(a, t, x, y, params) for a in node.args)))
    lhs = reference_evaluate(node.left, t, x, y, params)
    rhs = reference_evaluate(node.right, t, x, y, params)
    if node.op == "+":
        return lhs + rhs
    if node.op == "-":
        return lhs - rhs
    if node.op == "*":
        return lhs * rhs
    if node.op == "/":
        if rhs == 0.0:
            raise ZeroDivisionError("division by zero in expression")
        return lhs / rhs
    if lhs < 0.0 and not float(rhs).is_integer():
        raise ValueError(f"fractional power of a negative base in expression: {lhs!r}^{rhs!r}")
    try:
        return lhs ** rhs
    except OverflowError:  # past the float range: the IEEE inf of its sign, as * gives
        return -math.inf if lhs < 0.0 and rhs % 2.0 == 1.0 else math.inf


def ast_trees(negation=True):
    leaf = st.one_of(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(Num),
        st.just(Time()),
        st.sampled_from([Ref("x", 0), Ref("x", 1), Ref("y", 0), Ref("a"), Ref("b")]),
    )

    def extend(children):
        call = st.tuples(st.sampled_from(sorted(FUNCTIONS)), children, children).map(
            lambda c: Call(c[0], (c[1], c[2])[: FUNCTIONS[c[0]][0]])
        )
        binary = st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda c: Bin(*c))
        return st.one_of(children.map(Neg), call, binary) if negation else st.one_of(call, binary)

    return st.recursive(leaf, extend, max_leaves=10)


def outcome(compute):
    """Bytes of the result (every NaN as one NaN), or the exception type and message.

    When both operands of + - * / are NaN, numpy and CPython may keep
    different ones, so the sign of a NaN is not compared.
    """
    try:
        values = np.asarray(compute(), dtype=float)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return np.where(np.isnan(values), np.nan, values).tobytes()


def reference_table(nodes, times, x, y):
    return np.array(
        [[reference_evaluate(n, s, x, y, PARAMS) for n in nodes] for s in times.tolist()]
    )


# maps whose time-only subtrees repeat across trees; their values include
# -0.0 (tanh(-0.0)) and NaN (inf - inf), a stored value squared past the
# float range must saturate as a Python float does, not warn as a numpy
# scalar would, and the last tree raises past t = 6
TABLE_TREES = [
    parse_expression(src)
    for src in (
        "tanh(-t)*x[0]",
        "(exp(1000*t)-exp(1000*t))*x[0]",
        "x[1] + 0.3*cos(1.5707963267948966*t)*x[0] - (-1)^t*x[1]",
        "(-1)^t*x[0] + tanh(-t)*x[1]",
        "(x[0]*(1e200*tanh(t)))^2",
        "a*(-1)^t + x[0]*sqrt(6-t)",
    )
]


@st.composite
def table_calls(draw):
    """(t, xs, batch): a scalar or array time, integer (in the tables, negative,
    or at and above ``TABLE_TIMES``) or float, with one state or a batch."""
    ints = st.one_of(st.integers(-3, 9), st.integers(TABLE_TIMES - 2, TABLE_TIMES + 1))
    floats = st.sampled_from([0.0, -0.0, 0.5, 2.0, -1.5, 7.0, math.nan])
    scalar = draw(st.booleans())
    values = st.one_of(ints, floats) if scalar else st.one_of(
        st.lists(ints, min_size=1, max_size=6).map(np.array),
        st.lists(floats, min_size=1, max_size=4).map(lambda v: np.array(v, dtype=float)),
    )
    t = draw(values)
    size = 3 if scalar else len(t)
    xs = np.array(draw(st.lists(st.sampled_from([[0.5, -1.0], [-0.0, 2.0], [-1.5, 0.0]]), min_size=size, max_size=size)))
    return t, xs, not scalar or draw(st.booleans())


def scalar_walk(nodes, t, xs):
    """The table of :func:`reference_evaluate` over the rows of a call, row by row, tree by tree."""
    times = t.tolist() if isinstance(t, np.ndarray) else [t] * len(xs)
    return np.array([[reference_evaluate(n, s, x, None, PARAMS) for n in nodes] for s, x in zip(times, xs)])


@contextlib.contextmanager
def recorded_tables():
    """The time tables of the maps compiled inside the block, as they are made."""
    tables = []

    class Recorded(expressions._TimeTable):
        __slots__ = ()

        def __init__(self, run):
            super().__init__(run)
            tables.append(self)

    with mock.patch.object(expressions, "_TimeTable", Recorded):
        yield tables


states = st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=2, max_size=2)
time_arrays = st.lists(st.integers(min_value=-5, max_value=60), min_size=1, max_size=40).map(np.array)
# time arrays in which times repeat, around 0
repeating_times = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=60).map(np.array)


class TestCompiledEvaluation:
    """Compiled closures equal the scalar tree walk, over scalar and array t."""

    @given(tree=ast_trees(), x=states, y=st.floats(-2.0, 2.0), times=time_arrays)
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batched_matches_scalar_walk(self, tree, x, y, times):
        f = compile_expression(tree, PARAMS)
        for s in times.tolist()[:3]:
            want = outcome(lambda: reference_evaluate(tree, s, x, [y], PARAMS))
            got = outcome(lambda: f(s, x, [y]))
            assert got == want
            if isinstance(want, bytes):  # the scalar path keeps even the sign of a NaN
                assert np.float64(f(s, x, [y])).tobytes() == np.float64(
                    reference_evaluate(tree, s, x, [y], PARAMS)
                ).tobytes()
        want = outcome(lambda: reference_table([tree], times, x, [y])[:, 0])
        assert outcome(lambda: f(times, x, [y])) == want

    @given(first=ast_trees(), second=ast_trees(), x=states, times=time_arrays)
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_two_component_map_matches_scalar_order(self, first, second, x, times):
        f = compile_map([first, second], PARAMS)
        want = outcome(lambda: reference_table([first, second], times, x, [0.5]))
        assert outcome(lambda: f(times, x, [0.5])) == want

    @pytest.mark.parametrize(
        "src",
        ["tanh(x[0]*t/7)", "exp(x[0]*t/9)", "x[0]^2", "(x[0]*t/3)^2", "(-1)^t*x[1]", "cos(1.5707963267948966*t)"],
    )
    def test_functions_numpy_would_round_differently(self, src):
        tree = parse_expression(src)
        times = np.arange(0, 200)
        for x in ([0.3, -1.1], [-1.7, 0.9], [1.234567, 2.0]):
            want = reference_table([tree], times, x, None)[:, 0]
            assert compile_expression(tree)(times, x).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "src,exc,message",
        [
            ("1/(t-3)", ZeroDivisionError, "division by zero in expression"),
            ("sqrt(2-t)", ValueError, "math domain error"),
            ("(x[0]-t)^0.5", ValueError, "fractional power of a negative base in expression: -0.5^0.5"),
            ("(x[0]-1.5)^(t-1)", ZeroDivisionError, "0.0 cannot be raised to a negative power"),
        ],
    )
    def test_errors_match_the_first_failing_scalar_call(self, src, exc, message):
        tree = parse_expression(src)
        times = np.arange(0, 12)
        with pytest.raises(exc) as scalar:
            reference_table([tree], times, [1.5, 0.0], None)
        assert str(scalar.value) == message
        with pytest.raises(exc) as batched:
            compile_expression(tree)(times, [1.5, 0.0])
        assert str(batched.value) == message
        with pytest.raises(exc) as mapped:
            compile_map([parse_expression("t"), tree])(times, [1.5, 0.0])
        assert str(mapped.value) == message

    @pytest.mark.parametrize(
        "src,first,sign",
        [
            ("exp(100*t)", 8, 1.0),  # exp(800)
            ("10^(100*t)", 4, 1.0),  # 10^400
            ("(-10)^(100*t+1)", 4, -1.0),  # an odd power of a negative base
            ("(-10)^(100*t)", 4, 1.0),
            ("(0.1*x[0])^(-100*t)", 4, 1.0),  # 10^400 again, from a negative exponent
        ],
    )
    def test_overflow_is_inf_at_every_point_as_for_a_product(self, src, first, sign):
        # exp and ^ raised OverflowError where * gives inf; now each value past the
        # float range is the IEEE inf of its sign, scalar and batched alike
        tree = parse_expression(src)
        times = np.arange(0, 12)
        want = np.array([reference_evaluate(tree, s, [1.0, 0.0]) for s in times.tolist()])
        assert want[first:].tolist() == [sign * math.inf] * (12 - first)
        assert np.isfinite(want[:first]).all()
        f = compile_expression(tree)
        assert np.array([f(s, [1.0, 0.0]) for s in times.tolist()]).tobytes() == want.tobytes()
        assert f(times, [1.0, 0.0]).tobytes() == want.tobytes()
        assert f(times, np.array([[1.0, 0.0]] * 12)).tobytes() == want.tobytes()
        mapped = compile_map([parse_expression("t"), tree])(times, [1.0, 0.0])
        assert mapped[:, 1].tobytes() == want.tobytes()

    def test_an_overflowing_state_power_is_inf(self):
        f = compile_expression(parse_expression("0.5*x[0]+x[0]^3"))
        xs = np.array([[1e200], [0.5], [-1e200]])
        assert f(0, xs).tolist() == [math.inf, 0.375, -math.inf]
        assert [f(0, x) for x in xs] == [math.inf, 0.375, -math.inf]

    def test_second_component_failing_first_raises_its_error(self):
        # component 0 fails at t = 5, component 1 at t = 3: scalar order meets t = 3 first
        f = compile_map([parse_expression("1/(t-5)"), parse_expression("sqrt(2-t)")])
        with pytest.raises(ValueError, match="math domain error"):
            f(np.arange(0, 8), [0.0])
        with pytest.raises(ZeroDivisionError):  # the first component alone, over the same times
            compile_map([parse_expression("1/(t-5)")])(np.arange(0, 8), [0.0])

    @given(tree=ast_trees(), x=states, times=repeating_times)
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_repeating_times_match_scalar_walk(self, tree, x, times):
        want = outcome(lambda: reference_table([tree], times, x, [0.5])[:, 0])
        assert outcome(lambda: compile_expression(tree, PARAMS)(times, x, [0.5])) == want

    @pytest.mark.parametrize("src", ["tanh(-t)", "(-1)^t", "p^2*cos(t)", "x[0] + tanh(-t)*x[1] - (-1)^t"])
    def test_time_only_subtrees_keep_every_bit(self, src):
        tree, params = parse_expression(src), {"p": 1.7}
        times = np.array([0, -2, 3, 0, 1, -2, 0, 3, 3, -1, 0])
        f = compile_expression(tree, params)
        want = np.array([reference_evaluate(tree, s, [0.3, -1.1], None, params) for s in times.tolist()])
        assert f(times, [0.3, -1.1]).tobytes() == want.tobytes()
        xs = np.array([[0.3, -1.1]] * len(times))
        assert f(times, xs).tobytes() == want.tobytes()
        if src == "tanh(-t)":
            assert np.signbit(want[times == 0]).all()  # tanh(-0.0) is -0.0

    def test_float_times_are_told_apart_by_bit_pattern(self):
        # np.unique would fold -0.0 into 0.0 and one NaN payload into another
        payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
        times = np.array([0.0, -0.0, math.nan, payload, -0.0, 0.0, payload, math.nan])
        for src in ("tanh(t)", "min(t, 1)"):
            tree = parse_expression(src)
            want = np.array([reference_evaluate(tree, s, [0.0, 0.0]) for s in times.tolist()])
            assert compile_expression(tree)(times, [0.0, 0.0]).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "srcs,times,exc,message",
        [
            # at t = 5 the second component fails first; sorted, t = 3 would fail the first
            (["1/(t-3)", "sqrt(2-t)"], [5, 3, 5], ValueError, "math domain error"),
            (["sqrt(t-4)", "1/(t-9)"], [9, 2, 9], ZeroDivisionError, "division by zero in expression"),
            (["(1-t)^0.5"], [0, 4, 2, 9, 2], ValueError,
             "fractional power of a negative base in expression: -3.0^0.5"),
        ],
    )
    def test_hoisted_subtree_names_the_first_failing_point_in_batch_order(self, srcs, times, exc, message):
        f = compile_map([parse_expression(src) for src in srcs])
        with pytest.raises(exc) as batched:
            f(np.array(times), [0.0])
        assert str(batched.value) == message

    def test_unbound_parameter_in_a_time_only_subtree(self):
        f = compile_expression(parse_expression("x[0] + q*cos(t)"))
        for t in (2, np.array([2, 2, 5])):
            with pytest.raises(ValueError, match="unbound parameter 'q'"):
                f(t, [1.0])

    def test_one_scalar_call_per_distinct_time(self, monkeypatch):
        calls = []

        def counted(v):
            calls.append(v)
            return math.cos(v)

        monkeypatch.setitem(FUNCTIONS, "cos", (1, counted))
        f = compile_map([parse_expression("x[0]*cos(t)"), parse_expression("0.5*cos(2*t) - x[0]")])
        times = np.array([4, 1, 4, 4, 0, 1, 4])
        table = f(times, np.ones((7, 1)))
        assert sorted(calls) == sorted([0.0, 1.0, 4.0, 0.0, 2.0, 8.0])  # per subtree, each distinct t once
        assert table[:, 0].tolist() == [math.cos(t) for t in times.tolist()]
        calls.clear()
        f(3, np.ones((7, 1)))  # one time for the whole batch
        assert sorted(calls) == [3.0, 6.0]
        calls.clear()
        f(times, [1.0])  # every time is in the map's tables
        f(3, [1.0])
        assert calls == []
        f(np.array([3, 5, 5, 1]), np.ones((4, 1)))  # only t = 5 is new
        f(5, [1.0])
        assert sorted(calls) == [5.0, 10.0]
        calls.clear()
        for _ in range(2):  # a negative, a float and a time at the bound are stored nowhere
            f(np.array([-1, -1, TABLE_TIMES, 2]), np.ones((4, 1)))
            f(2.0, [1.0])
        bound = float(TABLE_TIMES)
        assert sorted(calls) == sorted([-1.0, -2.0, bound, 2 * bound, 2.0, 4.0] * 2 + [2.0, 4.0] * 2)

    @given(nodes=st.lists(st.sampled_from(TABLE_TREES), min_size=1, max_size=3), calls=st.lists(table_calls(), max_size=8))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_any_sequence_of_calls_matches_the_scalar_walk(self, nodes, calls):
        # one map keeps its tables across the calls: each call, whichever times
        # the tables hold by then, equals the scalar walk bit for bit (NaN signs
        # and payloads and signed zeros included) or raises its first error
        with recorded_tables() as tables:
            f = compile_map(nodes, PARAMS)
        for t, xs, batch in calls:
            if batch:
                want = exact(lambda: scalar_walk(nodes, t, xs))
                assert exact(lambda: f(t, xs)) == want
            else:
                want = exact(lambda: scalar_walk(nodes, np.array([t]), xs[:1])[0])
                assert exact(lambda: f(t, xs[0])) == want
        assert all(len(table.values) == len(table.known) <= TABLE_TIMES for table in tables)

    def test_a_time_only_subtree_is_shared_by_the_trees_of_a_map(self, monkeypatch):
        calls = []

        def counted(v):
            calls.append(v)
            return math.cos(v)

        monkeypatch.setitem(FUNCTIONS, "cos", (1, counted))
        srcs = ["x[0]*cos(t)", "x[1] - cos(t)", "cos(t)"]
        with recorded_tables() as tables:
            f = compile_map([parse_expression(src) for src in srcs])
        assert len(tables) == 1
        times, xs = np.array([2, 0, 2, 1]), np.array([[0.5, -1.0]] * 4)
        want = scalar_walk([parse_expression(src) for src in srcs], times, xs)
        calls.clear()
        assert f(times, xs).tobytes() == want.tobytes()
        assert sorted(calls) == [0.0, 1.0, 2.0]  # once per time for the three trees
        calls.clear()
        assert f(1, xs[0]).tobytes() == want[3].tobytes()
        assert calls == []
        # 0.0 and -0.0 compare equal but are two numbers: their subtrees keep two tables
        zero, negative_zero = (Call("tanh", (Bin("*", Num(v), Time()),)) for v in (0.0, -0.0))
        with recorded_tables() as tables:
            g = compile_map([Bin("+", Ref("x", 0), zero), Bin("+", Ref("x", 0), negative_zero)])
        assert len(tables) == 2
        values = g(np.array([1, 1]), np.array([[-0.0], [-0.0]]))
        assert np.signbit(values).tolist() == [[False, True], [False, True]]

    @pytest.mark.parametrize("src", ["x[0]*(1/(t-3))", "x[0]*(1/(t-3))^3", "x[0]*sqrt(2-t)"])
    def test_a_raising_shared_subtree_raises_on_every_call(self, src):
        nodes = [parse_expression(src), parse_expression(src.replace("x[0]", "x[1]"))]
        f = compile_map(nodes)
        x = np.array([0.5, -2.0])
        want = exact(lambda: scalar_walk(nodes, np.array([3]), [x])[0])
        assert isinstance(want, tuple)  # the first failing scalar call's error
        for t in ([3], [0, 1, 3, 2], [3, 4], [1, 2], [4, 3, 0]):
            times = np.array(t)
            assert exact(lambda: f(times, np.tile(x, (len(t), 1)))) == exact(lambda: scalar_walk(nodes, times, [x] * len(t)))
            assert exact(lambda: f(3, x)) == want
            assert exact(lambda: f(0, x)) == exact(lambda: scalar_walk(nodes, np.array([0]), [x])[0])


def exact(compute):
    """Bytes of the result, the sign of every NaN included, or the exception type and message."""
    try:
        values = np.asarray(compute(), dtype=float)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return values.tobytes()


def scalar_rows(f, t, xs, ys):
    """The one-point calls of ``f`` row by row, in sample order."""
    times = t.tolist() if isinstance(t, np.ndarray) else [t] * len(xs)
    return np.array([f(s, x, y) for s, x, y in zip(times, xs, ys)])


@st.composite
def state_batches(draw, values, max_size=12):
    """(xs, ys, ts): S states of dimension 2, S fast states of dimension 1, S times."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    xs = draw(st.lists(st.lists(values, min_size=2, max_size=2), min_size=size, max_size=size))
    ys = draw(st.lists(st.lists(values, min_size=1, max_size=1), min_size=size, max_size=size))
    ts = draw(st.lists(st.integers(min_value=-5, max_value=60), min_size=size, max_size=size))
    return np.array(xs, dtype=float), np.array(ys, dtype=float), np.array(ts)


# states whose NaNs all have one sign, and no value that overflows into an
# infinity (whose differences and quotients would make NaNs of the other sign)
one_sign_nans = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=2.0),
    st.floats(min_value=-2.0, max_value=-1e-6),
    st.just(math.nan),
)
# every kind of value: NaNs of either sign, infinities, signed zeros, subnormals
edge_values = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 5e-324]),
)


class TestStateBatches:
    """A compiled map over an (S, n) batch of states equals its one-point calls.

    NaN signs are compared wherever they are fixed.  A sum or product of
    two NaNs of opposite sign has none: CPython 3.11 keeps the second
    operand's NaN in its generic float add and the first's once the
    instruction is specialized for floats, so one scalar call can differ
    from the next.  Trees without negation over states whose NaNs share a
    sign never form such a pair.
    """

    @given(first=ast_trees(negation=False), second=ast_trees(negation=False),
           batch=state_batches(one_sign_nans))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batch_matches_scalar_calls_bit_for_bit(self, first, second, batch):
        xs, ys, ts = batch
        f = compile_map([first, second], PARAMS)
        for t in (3, ts):
            assert exact(lambda: f(t, xs, ys)) == exact(lambda: scalar_rows(f, t, xs, ys))

    @given(first=ast_trees(), second=ast_trees(), batch=state_batches(edge_values))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batch_matches_scalar_calls_on_every_value(self, first, second, batch):
        xs, ys, ts = batch
        f = compile_map([first, second], PARAMS)
        g = compile_expression(first, PARAMS)
        for t in (3, ts):
            assert outcome(lambda: f(t, xs, ys)) == outcome(lambda: scalar_rows(f, t, xs, ys))
            assert outcome(lambda: g(t, xs, ys)) == outcome(lambda: scalar_rows(g, t, xs, ys))

    @given(kinds=st.lists(st.sampled_from(["ok", "sqrt", "div", "both"]), min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_failing_sample_raises_its_scalar_error(self, kinds):
        # "sqrt": x[0] < 0 fails the first tree; "div": x[1] = 0 fails the second
        xs = np.array([[-1.0 if k in ("sqrt", "both") else 1.0, 0.0 if k in ("div", "both") else 2.0]
                       for k in kinds])
        f = compile_map([parse_expression("sqrt(x[0])"), parse_expression("1/x[1]")])
        got = exact(lambda: f(0, xs))
        assert got == exact(lambda: scalar_rows(f, 0, xs, [None] * len(xs)))
        first = next((k for k in kinds if k != "ok"), "ok")
        if first != "ok":  # that sample's first failing tree names the error
            assert got == ((ZeroDivisionError, "division by zero in expression") if first == "div"
                           else (ValueError, "math domain error"))

    @given(first=ast_trees(negation=False), second=ast_trees(negation=False),
           batch=state_batches(one_sign_nans))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_adapter_loop_matches_the_batched_compiled_map(self, first, second, batch):
        """The row-at-a-time reference: ``batch_map``'s loop over a plain
        callable that hands one point to a compiled map equals the
        compiled map's own batch, at a scalar time and at an integer array
        of times, by bytes or by the first error."""
        xs, ys, ts = batch
        f = BatchMap(compile_map([first, second], PARAMS))
        seen = []

        def plain(t, x, y):
            seen.append((type(t), np.ndim(x), np.ndim(y)))
            return f(t, x, y)

        loop = batch_map(plain)
        assert batch_map(f) is f  # a batch map is not looped
        for t in (3, ts):
            want = exact(lambda: f(t, xs, ys))
            assert exact(lambda: loop(t, xs, ys)) == want
            assert exact(lambda: scalar_rows(f, t, xs, ys)) == want
        assert set(seen) <= {(int, 1, 1)}

    def test_adapter_raises_the_first_failure_in_row_order(self):
        calls = []

        def plain(t, x):
            calls.append(t)
            if x[0] < 0.0:
                raise ValueError(f"negative state at t={t}")
            return 2.0 * x

        xs = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        with pytest.raises(ValueError, match=r"^negative state at t=11$"):
            batch_map(plain)(np.arange(10, 14), xs)
        assert calls == [10, 11]
        assert batch_map(plain)(5, xs[::2]).tolist() == [[2.0], [4.0]]

    def test_batches_of_different_lengths_are_refused(self):
        f = compile_map([parse_expression("x[0] + y[0]")])
        with pytest.raises(ValueError, match="different lengths"):
            f(0, np.zeros((3, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match=r"^batch arguments of different lengths 2 and 3$"):
            batch_map(lambda t, x: x)(np.arange(2), np.zeros((3, 1)))


def reference_jacobian(fn, t, x, base_step=1e-6):
    """The one-state two-pass loop: (A, fd_step, error_estimate) at (t, x)."""
    x = np.asarray(x, dtype=float)
    h = base_step * max(1.0, float(np.linalg.norm(x)))

    def one_pass(step):
        cols = []
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = step
            hi = np.asarray(fn(t, x + e), dtype=float)
            lo = np.asarray(fn(t, x - e), dtype=float)
            cols.append((hi - lo) / (2.0 * step))
        return np.column_stack(cols)

    coarse = one_pass(h)
    fine = one_pass(h / 2.0)
    return fine, h / 2.0, float(np.max(np.abs(fine - coarse)))


def jacobian_map(n, raising):
    """A compiled map from n states to n + 1 values with quadratic, tanh and
    time-varying terms.  The last value, -x[n-1]/2, is -0.0 at x[n-1] = +0.0
    and +0.0 at -0.0, so its column entries keep the signs of the zeros
    that each perturbed point holds.  ``raising`` adds x[0]^0.5, whose
    error names the negative x[0] it met."""
    exprs = [
        f"(0.5)*x[{i}] + (0.3)*x[{(i + 1) % n}]*tanh(x[{i}]) + (-0.2)*x[{i}]^2*cos(t)"
        for i in range(n)
    ] + [f"(-0.5)*x[{n - 1}]"]
    if raising:
        exprs[-1] += " + x[0]^0.5"
    return compile_map([parse_expression(e) for e in exprs])


def reference_estimates(fn, t, xs):
    """Per-sample bytes of the one-state estimates, or the first raising
    sample's exception type and message."""
    out = []
    for x in xs:
        try:
            A, step, error = reference_jacobian(fn, t, x)
        except Exception as exc:  # noqa: BLE001 - the exception is the outcome
            return type(exc), str(exc)
        out.append((A.tobytes(), np.float64(step).tobytes(), np.float64(error).tobytes()))
    return out


def batched_estimates(fn, t, xs):
    try:
        est = numerical_jacobian(fn, t, xs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    assert est.A.shape == (len(xs), xs.shape[1] + 1, xs.shape[1])
    return [
        (est.A[s].tobytes(), est.fd_step[s].tobytes(), est.error_estimate[s].tobytes())
        for s in range(len(xs))
    ]


@st.composite
def jacobian_batches(draw):
    """(S, n) states, 1 <= S <= 6 and 1 <= n <= 3, with signed zeros, small
    entries and entries large enough that |x| > 1 scales the step."""
    n = draw(st.integers(min_value=1, max_value=3))
    size = draw(st.integers(min_value=1, max_value=6))
    value = st.one_of(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-1e3, max_value=1e3),
        st.sampled_from([-0.0, 0.0, 1e-7, -1e-7]),
    )
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=size, max_size=size))
    return np.array(rows, dtype=float)


class TestBatchedJacobian:
    """numerical_jacobian over an (S, n) batch equals the one-state loop per
    sample, bit for bit, and raises what its first raising sample raises."""

    @given(xs=jacobian_batches(), t=st.integers(0, 5), raising=st.booleans(), marked=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_the_one_state_loop(self, xs, t, raising, marked):
        f = jacobian_map(xs.shape[1], raising)
        fn = BatchMap(f) if marked else (lambda t, x: f(t, x))
        want = reference_estimates(f, t, xs)
        assert batched_estimates(fn, t, xs) == want
        if isinstance(want, list):  # the one-state call is the S = 1 batch
            for x, row in zip(xs, want):
                one = numerical_jacobian(fn, t, x)
                assert (one.A.tobytes(), np.float64(one.fd_step).tobytes(),
                        np.float64(one.error_estimate).tobytes()) == row
                assert batched_estimates(fn, t, x[None]) == [row]

    @given(xs=jacobian_batches(), data=st.data(), raising=st.booleans(), marked=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_batch_over_times_matches_the_per_time_calls(self, xs, data, raising, marked):
        ts = data.draw(st.lists(st.integers(0, 40), min_size=len(xs), max_size=len(xs)))
        f = jacobian_map(xs.shape[1], raising)
        fn = BatchMap(f) if marked else (lambda t, x: f(t, x))
        want = []
        for t, x in zip(ts, xs):  # the first raising sample, in row order, is the outcome
            try:
                one = numerical_jacobian(fn, t, x)
            except ValueError as exc:
                want = (type(exc), str(exc))
                break
            want.append((one.A.tobytes(), np.float64(one.fd_step).tobytes(),
                         np.float64(one.error_estimate).tobytes()))
        assert batched_estimates(fn, np.array(ts), xs) == want

    def test_signed_zeros_and_scaled_steps(self):
        xs = np.array([[-0.0, 0.0, -0.0], [2.5, -0.0, 1.5], [-40.0, 0.1, -0.0]])
        f = BatchMap(jacobian_map(3, False))
        assert batched_estimates(f, 1, xs) == reference_estimates(f, 1, xs)
        assert numerical_jacobian(f, 1, xs).fd_step[2] > numerical_jacobian(f, 1, xs).fd_step[0]
        # |(0.3, 1.2)| > 1 sets the step, and np.linalg.norm(..., axis=1)
        # rounds it one bit off np.linalg.norm of the row (FMA BLAS dot)
        xs = np.array([[0.3, 1.2], [-0.0, 0.6]])
        f = BatchMap(jacobian_map(2, False))
        assert batched_estimates(f, 1, xs) == reference_estimates(f, 1, xs)

    def test_points_reach_an_unmarked_map_in_the_one_state_order(self):
        xs = np.array([[0.3, -0.0], [1.5, -2.0]])
        seen, want = [], []
        reference_estimates(lambda t, x: want.append(x.tobytes()) or x, 0, xs)
        numerical_jacobian(lambda t, x: seen.append(x.tobytes()) or x, 0, xs)
        assert seen == want

    def test_first_raising_sample_names_the_error(self):
        # x[0]^0.5 raises at the first negative x[0] a perturbation reaches:
        # sample 1's coarse x - h e_0, although sample 2 is negative throughout
        xs = np.array([[0.5, 0.5], [0.0, 1.0], [-1.0, 0.0]])
        f = BatchMap(jacobian_map(2, True))
        want = reference_estimates(f, 0, xs)
        assert want == (ValueError, "fractional power of a negative base in expression: -1e-06^0.5")
        assert batched_estimates(f, 0, xs) == want


def report_at(condition, slack, points, details=None):
    """``ConditionReport.from_slack`` over a list of (t, x) sample points."""
    times, states = [t for t, _ in points], [x for _, x in points]
    return ConditionReport.from_slack(condition, slack, times, states, details)


def reference_positive_definite(V, grid, times=None):
    """The one-sample-at-a-time loop the batched check_positive_definite replaced."""
    grid = certcheck._candidate_grid(V, grid)
    times = certcheck._times(V, None) if times is None else tuple(times)
    points = [(t, x.copy()) for t in times for x in grid if np.any(x)]
    slack = [V(t, x) for t, x in points]
    return report_at(POS_DEF, slack, points)


def reference_decrease(V, sys, grid, strict=False, times=None):
    """The one-sample-at-a-time loop the batched check_decrease replaced."""
    grid = certcheck._candidate_grid(V, grid)
    times = certcheck._times(V, sys) if times is None else tuple(times)
    points = [(t, x.copy()) for t in times for x in grid if np.any(x)]
    sign = -1.0 if strict else 1.0
    slack = []
    for t, x in points:
        value = V(t, x)
        delta = V(t + 1, sys.step(t, x)) - value
        slack.append(sign * (TOL_ABS + TOL_REL * abs(value)) - delta)
    return report_at(STRICT_DECREASE if strict else DECREASE, slack, points)


def report_bytes(rep):
    point = None
    if rep.worst_point is not None:
        point = (rep.worst_point[0], np.asarray(rep.worst_point[1]).tobytes())
    return rep.condition, rep.passed, np.float64(rep.worst_margin).tobytes(), point, rep.samples_checked


def check_candidate(P, marked, time_dependent):
    """x'Px, times 1 + t/4 when time-dependent; the unmarked one is called
    one sample at a time, the marked one once per batch."""
    form = CandidateFunction.quadratic(P).eval_fn

    def V(t, x):
        value = form(t, x)
        return (1.0 + 0.25 * np.asarray(t, dtype=float)) * value if time_dependent else value

    fn = BatchMap(V) if marked else V
    return CandidateFunction(fn, dim=P.shape[0], quadratic_P=P, time_dependent=time_dependent)


def polynomial_map(gain, time_dependent, marked):
    """Element-wise, so a batch row equals the one-state call bit for bit."""

    def f(t, x):
        x = np.asarray(x, dtype=float)
        g = gain + 0.05 * np.asarray(t, dtype=float)[..., None] if time_dependent else gain
        return g * x - 0.3 * x[..., ::-1] * x

    return BatchMap(f) if marked else f


@st.composite
def check_cases(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(seeds))
    B = rng.standard_normal((n, n))
    P = B @ B.T - draw(st.sampled_from([0.0, 0.5])) * np.eye(n)  # sometimes indefinite
    V = check_candidate(P, draw(st.booleans()), draw(st.booleans()))
    kind = draw(st.sampled_from(["linear", "polynomial", "polynomial-tv"]))
    if kind == "linear":  # the benchmark's unmarked lambda
        A = rng.standard_normal((n, n))
        A *= draw(st.floats(0.3, 1.3)) / max(abs(np.linalg.eigvals(A)).max(), 1e-9)
        sys = DynSystem(n, lambda t, x: A @ x)
    else:
        tv = kind == "polynomial-tv"
        fn = polynomial_map(rng.uniform(-1.1, 1.1, n), tv, draw(st.booleans()))
        sys = DynSystem(n, fn, autonomous=not tv)
    grid = shell_grid(n, draw(st.floats(0.1, 2.0)), n_shells=3, n_directions=6)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        grid = np.insert(grid, int(rng.integers(len(grid) + 1)), 0.0, axis=0)
    return V, sys, grid


class TestBatchedCheckKernel:
    """check_positive_definite and check_decrease read their samples in
    batches; each report equals the one-sample loop's bit for bit: margin
    bytes, worst point and sample count."""

    @given(case=check_cases(), strict=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_reports_match_the_one_sample_loop(self, case, strict):
        V, sys, grid = case
        assert report_bytes(check_positive_definite(V, grid)) == report_bytes(
            reference_positive_definite(V, grid)
        )
        assert report_bytes(check_decrease(V, sys, grid, strict=strict)) == report_bytes(
            reference_decrease(V, sys, grid, strict=strict)
        )

    def test_unmarked_callables_see_the_samples_in_order(self):
        # t-major, zero rows dropped: the reference loop's order per callable
        def recorded(fn, calls):
            def f(t, x):
                calls.append((t, np.asarray(x).tobytes()))
                return fn(t, x)

            return f

        grid = np.insert(shell_grid(2, 1.0, n_shells=2, n_directions=3), 2, 0.0, axis=0)
        runs = []
        for check in (check_decrease, reference_decrease):
            v_calls, map_calls = [], []
            V = check_candidate(np.diag([1.0, 2.0]), False, True)
            V = CandidateFunction(recorded(V.eval_fn, v_calls), dim=2, time_dependent=True)
            fn = recorded(polynomial_map(np.array([0.5, -0.4]), True, False), map_calls)
            check(V, DynSystem(2, fn, autonomous=False), grid)
            runs.append((v_calls[3:], map_calls[4:]))  # past the construction checks
        (v_calls, map_calls), (v_want, map_want) = runs
        assert map_calls == map_want and len(map_calls) == 4 * 6
        assert v_calls == v_want[0::2] + v_want[1::2]  # V at every (t, x), then after every step

    @pytest.mark.parametrize("marked", [False, True])
    def test_all_zero_grid_fails_closed(self, marked):
        grid = np.zeros((5, 2))
        form = CandidateFunction.quadratic(np.eye(2)).eval_fn  # marked
        V = CandidateFunction(form if marked else (lambda t, x: form(t, x)), dim=2, time_dependent=True)
        sys = DynSystem(2, polynomial_map(np.full(2, 0.5), True, marked), autonomous=False)
        reports = [check_positive_definite(V, grid), check_decrease(V, sys, grid, strict=True)]
        references = [reference_positive_definite(V, grid), reference_decrease(V, sys, grid, True)]
        assert [report_bytes(r) for r in reports] == [report_bytes(r) for r in references]
        for rep in reports:
            assert rep.samples_checked == 0 and not rep.passed and math.isnan(rep.worst_margin)
        quadratic = CandidateFunction.quadratic(np.eye(2))
        with pytest.raises(ValueError, match="no nonzero points"):
            check_decrease(quadratic, sys, grid)


class TestDriftCoefficients:
    @given(
        T=st.integers(min_value=1, max_value=64),
        L=st.floats(min_value=0.05, max_value=4.0),
        sigma=st.floats(min_value=0.0, max_value=2.0),
        e1=st.floats(min_value=1e-9, max_value=0.5),
        e2=st.floats(min_value=1e-9, max_value=0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_nu_and_mu_monotone_in_amplitude(self, T, L, sigma, e1, e2):
        assume(abs(e1 - e2) > 1e-15)
        lo, hi = min(e1, e2), max(e1, e2)
        assert nu(T, lo, L, sigma) <= nu(T, hi, L, sigma)
        assert mu(T, lo, L, sigma) <= mu(T, hi, L, sigma)

    @given(
        T=st.integers(min_value=1, max_value=64),
        L=st.floats(min_value=0.05, max_value=4.0),
        sigma=st.floats(min_value=0.0, max_value=2.0),
        eps=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_mu_dominates_nu(self, T, L, sigma, eps):
        assert mu(T, eps, L, sigma) >= nu(T, eps, L, sigma)


def reference_time_table(fn, times, x, time_batched):
    """The per-window read the averaging windows used: one call over the
    window's times for a map that takes an array of times
    (``time_batched``), else one call per time, in order."""
    if time_batched:
        return real_array(fn(np.arange(times.start, times.stop), x))
    return np.array([real_array(fn(t, x)) for t in times])


def reference_window_sums(fn, starts, xs, length, time_batched):
    """Window after window, each one's zero-prepended table summed with np.cumsum."""
    out = []
    for k, x in zip(starts, xs):
        rows = np.zeros((length + 1, x.size))
        rows[1:] = reference_time_table(fn, range(k, k + length), x, time_batched).reshape(length, -1)
        out.append(np.cumsum(rows, axis=0))
    return np.array(out)


@st.composite
def window_sets(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    xs = np.array(draw(st.lists(states, min_size=size, max_size=size)), dtype=float)
    starts = draw(st.lists(st.integers(0, 40), min_size=size, max_size=size))
    return starts, xs, draw(st.integers(min_value=1, max_value=24))


class TestBatchedWindows:
    """The averaging windows of a call, read in one batch, equal the
    per-window table loop bit for bit, for marked and unmarked compiled
    fields, and raise what the loop raises first."""

    @given(first=ast_trees(), second=ast_trees(), windows=window_sets(), marked=st.booleans())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batched_windows_match_the_per_window_loop(self, first, second, windows, marked):
        starts, xs, length = windows
        f = compile_map([first, second], PARAMS)

        def field(t, x):
            return f(t, x, [0.5])

        fn = BatchMap(field) if marked else field
        want = exact(lambda: reference_window_sums(field, starts, xs, length, marked))
        assert exact(lambda: _prefix_sums(batch_map(fn), starts, xs, length)) == want
        phibar = _window_mean(batch_map(fn), 8)  # reads its windows from 0
        ref = exact(lambda: reference_window_sums(field, [0], xs[:1], 9, marked)[0, -1] / 8)
        assert exact(lambda: phibar(xs[0])) == ref
        batch = exact(lambda: reference_window_sums(field, [0] * len(xs), xs, 9, marked)[:, -1] / 8)
        assert exact(lambda: phibar(xs)) == batch


def reference_mean(field, phibar, marked):
    """The window mean one state at a time: a fake ``phibar`` called on
    the state, the real one (T_max = 8) as its window read from 0."""
    if phibar is not None:
        return lambda x: real_array(phibar(x))
    return lambda x: reference_window_sums(field, [0], [x], 9, marked)[0, -1] / 8


def reference_sigma(field, mean, xs, T_list, marked):
    """The per-tuple ``estimate_sigma`` of the (k, x) tuples at k = 0..3
    over the probe states, with L from the growth loop read on its own:
    1.1 times the largest |f(k, x)| / |x| over k = 0..3 and the nonzero
    states.  Then each live tuple's window is read on its own, with one
    window mean per distinct state; the raw entries, then their running
    minimum.  A NaN or infinite quotient or deviation is refused, not
    skipped by ``max``."""
    live = [x for x in xs if not float(np.linalg.norm(x)) < 1e-14]
    if not live:
        raise ValueError("no sample pair with nonzero separation")
    best = 0.0
    for k in range(4):
        for x in live:
            with np.errstate(all="ignore"):
                ratio = float(np.linalg.norm(real_array(field(k, x)))) / float(np.linalg.norm(x))
            if not math.isfinite(ratio):
                raise ValueError(f"non-finite growth quotient at t={k}, x={x.tolist()}")
            best = max(best, ratio)
    L = best * 1.1
    if not 0.0 < L < math.inf:
        raise ValueError(f"growth bound L must be positive and finite, got {L}")
    raw, means = dict.fromkeys(T_list, 0.0), {}
    for k, x in [(k, x) for k in range(4) for x in xs]:
        nx = float(np.linalg.norm(x))
        if nx < 1e-14:
            continue
        sums = reference_window_sums(field, [k], [x], T_list[-1] + 1, marked)[0]
        if x.tobytes() not in means:
            means[x.tobytes()] = mean(x)
        for T in T_list:
            deviation = float(np.linalg.norm(sums[T + 1] - T * means[x.tobytes()]))
            if not math.isfinite(deviation):
                raise ValueError(f"non-finite deviation at k={k}, T={T}")
            raw[T] = max(raw[T], deviation / (T * L * nx))
    return [L, *raw.values(), *itertools.accumulate(raw.values(), min)]


def reference_drift(field, mean, table, samples):
    """The per-sample loop ``check_drift_remainder`` ran over (k, x, T,
    eps) tuples: each sample's horizon looked up, its window stepped, then
    its window mean read.  A NaN or infinite state is refused, not skipped
    as its NaN norm would be.  A window stops at a state that is NaN or
    infinite or has a norm above 1e12 (the kernel's divergence rule), and
    its drift reads inf."""
    points, params, slack = [], [], []
    for k, x, T, eps in samples:
        if not np.isfinite(x).all():
            raise ValueError(f"non-finite drift sample state at x={x.tolist()}")
        nx = float(np.linalg.norm(x))
        if nx < 1e-14:
            continue
        sigma_T = table.sigma(T)
        end, diverged = x, False
        for j in range(T + 1):
            end = end + eps * real_array(field(k + j, end))
            if not np.linalg.norm(end) <= 1e12:
                diverged = True
                break
        m = mean(x)
        with np.errstate(over="ignore"):
            drift = math.inf if diverged else float(np.linalg.norm(end - x - eps * T * m))
        points.append((k, x.copy()))
        params.append({"T": T, "eps": eps})
        slack.append(eps * T * nu(T, eps, table.L, sigma_T) * nx - drift + TOL_ABS)
    i = certcheck.worst_index(slack)
    details = {"L": table.L, "worst_sample": None if i is None else params[i]}
    return report_at(DRIFT_REMAINDER, slack, points, details)


def reference_gradient(V, x):
    """Central differences of V at x, one coordinate and one sign per call."""
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = GRAD_STEP
        g[i] = (V.eval_fn(0, x + e) - V.eval_fn(0, x - e)) / (2.0 * GRAD_STEP)
    return g


def reference_slow_constants(V, mean, probes):
    """The per-probe loop ``fit_slow_constants`` ran: gradient, then mean.
    A NaN or infinite term is refused, not skipped by ``min`` and ``max``."""
    c3, used = math.inf, 0
    if V.quadratic_P is not None:
        eigs = np.linalg.eigvalsh(V.quadratic_P)
        c1, c2, c4 = float(eigs[0]), float(eigs[-1]), 2.0 * float(eigs[-1])
    else:
        c1, c2, c4 = math.inf, 0.0, 0.0
    for x in probes:
        nx = float(np.linalg.norm(x))
        if nx < 1e-14:
            continue
        used += 1
        grad = reference_gradient(V, x)
        decrement = -float(grad @ mean(x)) / nx ** 2
        if not math.isfinite(decrement):
            raise ValueError(f"non-finite decrement at x={x.tolist()}")
        c3 = min(c3, decrement)
        if V.quadratic_P is None:
            value = float(V.eval_fn(0, x))
            slope = float(np.linalg.norm(grad)) / nx
            if not (math.isfinite(value / nx ** 2) and math.isfinite(slope)):
                raise ValueError(f"non-finite value or gradient at x={x.tolist()}")
            c1, c2 = min(c1, value / nx ** 2), max(c2, value / nx ** 2)
            c4 = max(c4, slope)
    if used == 0:
        raise ValueError("no probe with nonzero norm")
    if c1 <= 0.0 or not math.isfinite(c2):
        raise HypothesisViolationError(
            f"candidate is not sandwiched by positive quadratics (c1={c1:.3e})"
        )
    if c3 <= 0.0:
        raise HypothesisViolationError(
            f"averaged field does not descend along the candidate (c3={c3:.3e})"
        )
    return c1, c2, c3, c4


def sigma_values(table):
    return [table.L, *table.raw_entries.values(), *table.entries.values()]


def report_values(rep):
    """A drift report as floats: verdict, margin, count, L, worst point and sample."""
    k, x = rep.worst_point or (math.nan, ())
    worst = rep.details["worst_sample"] or {"T": math.nan, "eps": math.nan}
    return [rep.passed, rep.worst_margin, rep.samples_checked, rep.details["L"], k, *x,
            worst["T"], worst["eps"]]


def assert_same_outcome(got, want):
    """Equal bit for bit, or raising the same error.  Where the reference
    loop meets a failing field call, the batched call must raise too, but
    it reads its windows in another order, so a field that fails at
    several points may raise another of them first."""
    assert got == want or (isinstance(got, tuple) and isinstance(want, tuple)
                           and isinstance(got[0], type) and isinstance(want[0], type))


def bare_average(phibar, mean, xs):
    """An AveragedField around ``phibar`` on the probe states ``xs``, without
    a convergence probe.  Its means are ``mean`` at each state; a state
    whose mean raises, which ``estimate_average`` would refuse, gets a NaN
    row, so that every read of it fails as the reference's does."""
    def row(x):
        try:
            return np.asarray(mean(x), dtype=float).reshape(x.shape)
        except Exception:  # noqa: BLE001 - the failure is read as a NaN mean
            return np.full(x.shape, math.nan)

    probes = np.array(xs, dtype=float).reshape(len(xs), -1)
    means = np.array([row(x) for x in probes]).reshape(probes.shape)
    return AveragedField(phibar=phibar, probes=probes, means=means, T_used=8, convergence_gap=math.nan)


# unmarked fakes (``lambda x: -x`` as in the unit tests) and a marked one
FAKE_PHIBARS = {
    "negative": lambda x: -x,
    "sine": lambda x: np.sin(3.0 * np.asarray(x)) - np.asarray(x),
    "marked-tanh": BatchMap(lambda x: np.tanh(np.asarray(x)) - 2.0 * np.asarray(x)),
}


def averaging_case(first, second, fake, xs):
    """The field of the two trees, the window mean (T_max = 8) or the fake
    one named ``fake``, and the probe states ``xs``: the field as a plain
    callable and as a ``BatchMap``, each with the window mean and reference
    of its own flavor."""
    f = compile_map([first, second], PARAMS)

    def field(t, x):
        return f(t, x, [0.5])

    phibar = None if fake is None else FAKE_PHIBARS[fake]
    flavors = []
    for marked in (True, False):
        fn = BatchMap(field) if marked else field
        own = _window_mean(batch_map(fn), 8) if phibar is None else phibar
        mean = reference_mean(field, phibar, marked)
        flavors.append((fn, bare_average(own, mean, xs), mean, marked))
    return flavors, xs


@st.composite
def averaging_cases(draw):
    """An :func:`averaging_case` of a compiled two-component field, its real
    window mean or a fake one, and probe states with a zero row, a repeated
    row (an equal state in a distinct array) and a row with a -0.0
    component, in drawn order."""
    first, second = draw(ast_trees()), draw(ast_trees())
    fake = draw(st.sampled_from([None, *FAKE_PHIBARS]))
    nonzero = states.filter(lambda v: math.hypot(*v) >= 1e-14)
    xs = [np.array(v, dtype=float) for v in [draw(nonzero), *draw(st.lists(states, max_size=2))]]
    signed = draw(st.floats(-2.0, 2.0, allow_nan=False))
    xs += [np.zeros(2), xs[0].copy(), np.array([-0.0, signed])[:: draw(st.sampled_from([1, -1]))]]
    return averaging_case(first, second, fake, draw(st.permutations(xs)))


class TestBatchedWindowMeans:
    """``estimate_sigma`` reads one window table over the nonzero probes at
    k = 0..3, and L from its first values; the means of sigma and of the
    slow constants are the stored ones; ``check_drift_remainder`` reads its
    means in one ``phibar`` call.  Each is equal bit for bit to the
    per-tuple loop it replaced, kept here as the reference, for a marked
    and an unmarked field."""

    @given(case=averaging_cases(), T_list=st.sets(st.integers(1, 8), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_sigma_matches_the_per_tuple_loop(self, case, T_list):
        flavors, xs = case
        for fn, avg, mean, marked in flavors:
            want = exact(lambda: reference_sigma(fn, mean, xs, sorted(T_list), marked))
            assert_same_outcome(exact(lambda: sigma_values(estimate_sigma(fn, avg, T_list))), want)

    @given(
        case=averaging_cases(),
        sigmas=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        L=st.floats(0.1, 3.0),
        draws=st.lists(st.tuples(st.integers(0, 6), st.sampled_from([1, 2, 4, 4, 5]), st.floats(0.0, 0.3)),
                       min_size=6, max_size=6),
        poison=st.tuples(st.sampled_from([None, math.nan, math.inf, -math.inf]), st.integers(0, 5), st.integers(0, 1)),
    )
    # a window that leaves 1e12 without overflowing: at x = [0, 1] the second
    # step adds 0.25 * -1 / 1.98e-115, and the kernel reads drift inf
    @example(
        case=averaging_case(Num(0.0), Bin("/", Neg(Time()), Num(1.98e-115)), None, [np.array([0.0, 1.0])]),
        sigmas=(0.5, 0.5, 0.5), L=1.0, draws=[(0, 1, 0.25)] * 6, poison=(None, 0, 0),
    )
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_drift_remainder_matches_the_per_sample_loop(self, case, sigmas, L, draws, poison):
        flavors, xs = case
        T_list = (1, 2, 4)
        table = SigmaTable(L=L, T_list=T_list, entries=dict(zip(T_list, sigmas)))
        samples = [(k, x, T, eps) for x, (k, T, eps) in zip(xs, draws)]
        value, i, j = poison
        if value is not None:  # a non-finite entry in one sample's state, which is never skipped
            i %= len(samples)
            x = samples[i][1].copy()
            x[j] = value
            samples[i] = (samples[i][0], x, *samples[i][2:])
        k, x, T, eps = (np.array(v) for v in zip(*samples))
        for fn, avg, mean, _ in flavors:
            want = exact(lambda: report_values(reference_drift(fn, mean, table, samples)))
            got = exact(lambda: report_values(check_drift_remainder(fn, avg, table, k, x, T, eps)))
            assert_same_outcome(got, want)

    @given(case=averaging_cases(), seed=seeds, quadratic=st.booleans())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_slow_constants_match_the_per_probe_loop(self, case, seed, quadratic):
        flavors, xs = case
        B = np.random.default_rng(seed).standard_normal((2, 2))
        P = B @ B.T + 0.1 * np.eye(2)
        V = CandidateFunction.quadratic(P)
        if not quadratic:  # a quartic term: sampled c1, c2, c4
            V = CandidateFunction(lambda t, x: V.eval_fn(t, x) + float(x @ x) ** 2, dim=2)
        for _, avg, mean, _ in flavors:
            want = exact(lambda: reference_slow_constants(V, mean, xs))
            assert_same_outcome(exact(lambda: fit_slow_constants(V, avg)), want)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_drift_fails_with_an_infinite_deficit(self):
        # five steps of x + 0.5 * 2e40 x reach 1e200, finite, but its norm overflows
        field = BatchMap(lambda t, x: 2e40 * np.asarray(x, dtype=float))
        table = SigmaTable(L=1.0, T_list=(1, 4), entries={1: 0.5, 4: 0.5})
        x = np.array([1.0, 1.0])
        k, xs, T, eps = np.array([0, 3]), np.array([[0.1, 0.0], x]), np.array([1, 4]), np.array([0.0, 0.5])
        avg = bare_average(_window_mean(field, 8), _window_mean(field, 8), xs)
        rep = check_drift_remainder(field, avg, table, k, xs, T, eps)
        assert not rep.passed and rep.worst_margin == -math.inf
        assert rep.worst_point[0] == 3 and rep.worst_point[1].tolist() == x.tolist()
        assert rep.details["worst_sample"] == {"T": 4, "eps": 0.5}

    def test_sigma_reads_one_window_per_start_and_live_probe_and_the_constants_none(self):
        rows = []

        @BatchMap
        def field(t, x):
            rows.extend(zip(np.broadcast_to(t, len(x)).tolist(), x.tolist()))
            return -np.asarray(x, dtype=float)

        xs = [np.array([0.3, -0.2]), np.zeros(2), np.array([1.0, 0.5]), np.array([0.3, -0.2])]
        avg = estimate_average(field, xs, T_max=8)
        real, shapes = avg.phibar, []

        @BatchMap
        def counted(x):
            shapes.append(np.shape(x))
            return real(x)

        avg = replace(avg, phibar=counted)
        rows.clear()
        estimate_sigma(field, avg, [1, 4])
        # 4 windows of max(T) + 1 = 5 rows per nonzero probe, repeats included
        live = [xs[0], xs[2], xs[3]]
        assert rows == [(k + j, x.tolist()) for k in range(4) for x in live for j in range(5)]
        rows.clear()
        fit_slow_constants(CandidateFunction.quadratic(np.eye(2)), avg)
        assert rows == [] and shapes == []  # the stored means, no window read again
        table = SigmaTable(L=1.0, T_list=(1, 4), entries={1: 0.5, 4: 0.5})
        k, T, eps = np.arange(4), np.full(4, 4), np.full(4, 0.01)
        check_drift_remainder(field, avg, table, k, np.array(xs), T, eps)
        assert shapes == [(3, 2)]  # every nonzero sample's mean in one call, repeats included


DRIVE_FIELDS = [
    ["-x[0] + a*(-1)^t*x[1]", "-x[1] + b*cos(1.5707963267948966*t)*x[0]"],
    ["-x[0] + a*sin(1.5707963267948966*t)*x[0] + b*(-1)^t*x[1]", "-x[1] + a*(-1)^t*x[0] + tanh(-t)*x[1]"],
]


def reference_window(phi, k, x, eps, steps):
    """The states x(k), ..., x(k + steps) of x+ = x + eps*phi(t, x) from one
    state, one field call per step: the per-sample loop the averaging
    windows were stepped with before the trajectory kernel took them."""
    states = [np.asarray(x, dtype=float)]
    for j in range(steps):
        states.append(states[-1] + eps * real_array(phi(k + j, states[-1])))
    return states


def reference_drift_windows(phi, avg, table, k, x, T, eps):
    """``check_drift_remainder`` as it stepped each kept sample's window on
    its own: every sigma(T) looked up first, the means read in one
    ``avg.phibar`` call, then one ``reference_window`` and one
    ``np.linalg.norm`` per sample.  A window with a state that is NaN or
    infinite or has a norm above 1e12 (the kernel's divergence rule) reads
    drift inf."""
    norms = _row_norms(x)
    kept = np.flatnonzero(norms >= 1e-14)
    xs, times = x[kept], k[kept]
    sigmas = [table.sigma(T_i) for T_i in T[kept].tolist()]
    means = avg.phibar(xs) if len(kept) else []
    params, slack = [], []
    for k_i, x_i, T_i, eps_i, nx, sigma_T, mean in zip(
        times.tolist(), xs, T[kept].tolist(), eps[kept].tolist(), norms[kept].tolist(), sigmas, means
    ):
        window = reference_window(phi, k_i, x_i, eps_i, T_i + 1)
        with np.errstate(over="ignore"):
            drift = float(np.linalg.norm(window[-1] - x_i - eps_i * T_i * mean))
        if not all(np.linalg.norm(state) <= 1e12 for state in window):
            drift = math.inf
        params.append({"T": T_i, "eps": eps_i})
        slack.append(eps_i * T_i * nu(T_i, eps_i, table.L, sigma_T) * nx - drift + TOL_ABS)
    i = certcheck.worst_index(slack)
    details = {"L": table.L, "worst_sample": None if i is None else params[i]}
    return ConditionReport.from_slack(DRIFT_REMAINDER, slack, times, xs, details)


def drift_outcome(check):
    """The slack of every sample as bytes, the report's values and its
    details, or the exception type and message."""
    seen = []
    real = ConditionReport.from_slack.__func__

    def spy(cls, condition, slack, times, states, details=None):
        seen.append(np.asarray(slack, dtype=float).tobytes())
        return real(cls, condition, slack, times, states, details)

    with mock.patch.object(ConditionReport, "from_slack", classmethod(spy)):
        try:
            rep = check()
        except Exception as exc:  # noqa: BLE001 - the exception is the outcome
            return type(exc), str(exc)
    return seen, exact(lambda: report_values(rep)), repr(rep.details)


class TestRaggedDriftWindows:
    """``check_drift_remainder`` steps every kept sample's window in one
    ragged batch, each row leaving after its own T + 1 steps, and reads the
    drifts with one ``_row_norms``: bit for bit the per-sample loop it
    replaced, kept here as the reference, on compiled drive maps whose time
    tables fill in either order, up to and past ``TABLE_TIMES``."""

    @given(
        data=st.data(),
        srcs=st.sampled_from(DRIVE_FIELDS),
        gains=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        size=st.integers(1, 6),
    )
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_drift_remainder_matches_the_per_sample_windows(self, data, srcs, gains, size):
        params = dict(zip("ab", gains))
        nodes = [parse_expression(src) for src in srcs]
        starts = st.one_of(st.integers(0, 6), st.integers(TABLE_TIMES - 5, TABLE_TIMES + 1))
        rows = st.one_of(st.just([0.0, 0.0]), st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
        k = np.array(data.draw(st.lists(starts, min_size=size, max_size=size)))
        x = np.array(data.draw(st.lists(rows, min_size=size, max_size=size)))
        T = np.array(data.draw(st.lists(st.sampled_from([1, 2, 4]), min_size=size, max_size=size)))
        eps = np.array(data.draw(st.lists(st.floats(0.0, 0.3), min_size=size, max_size=size)))
        entries = {T_i: data.draw(st.floats(0.0, 1.0)) for T_i in (1, 2, 4)}
        table = SigmaTable(L=data.draw(st.floats(0.1, 3.0)), T_list=(1, 2, 4), entries=entries)
        with recorded_tables() as tables:
            f = compile_map(nodes, params)
            avg = estimate_average(BatchMap(lambda t, x: f(t, x)), np.eye(2), T_max=8)
            fresh, shared = BatchMap(compile_map(nodes, params)), BatchMap(compile_map(nodes, params))
        field = BatchMap(compile_map(nodes, params))
        want = drift_outcome(lambda: reference_drift_windows(field, avg, table, k, x, T, eps))
        unmarked = compile_map(nodes, params)  # one row per call, as an unmarked field is read
        for phi in (fresh, field, lambda t, x: unmarked(t, x)):
            assert drift_outcome(lambda: check_drift_remainder(phi, avg, table, k, x, T, eps)) == want
        assert drift_outcome(lambda: check_drift_remainder(shared, avg, table, k, x, T, eps)) == want
        assert drift_outcome(lambda: reference_drift_windows(shared, avg, table, k, x, T, eps)) == want
        assert all(len(t.values) == len(t.known) <= TABLE_TIMES for t in tables)

    def test_ragged_rows_leave_after_their_own_steps(self):
        calls = []

        @BatchMap
        def field(t, x):
            calls.append(np.shape(x))
            return (0.5 - 0.1 * np.asarray(t, dtype=float))[..., None] * x - 0.25 * x

        k, x = np.array([3, 0, 5]), np.array([[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]])
        steps, eps = np.array([2, 4, 1]), np.array([0.1, 0.3, 0.2])
        states, diverged = trajectories(_slow_step(field), k, x, steps, eps)
        assert states.shape == (3, 5, 2) and calls == [(3, 2), (2, 2), (1, 2), (1, 2)]
        assert diverged.tolist() == [0, 0, 0]  # a row that leaves at its own count has not diverged
        for i in range(3):
            alone = reference_window(field, int(k[i]), x[i], float(eps[i]), int(steps[i]))
            assert states[i, : steps[i] + 1].tobytes() == np.array(alone).tobytes()
            assert np.isnan(states[i, steps[i] + 1 :]).all()

    @pytest.mark.parametrize(
        "steps",
        [np.array([1, 2]), np.array([[1], [2], [3]]), np.array([1, 2, 3, 4]), np.array([1, -1, 2]),
         np.array([1.0, 2.0, 3.0]), -1, -2, 2.5],
    )
    def test_malformed_step_counts_are_refused_before_any_field_call(self, steps):
        calls = []
        with pytest.raises(ValueError, match="horizon must be a nonnegative int"):
            trajectories(lambda t, x: calls.append(t), 0, np.ones((3, 2)), steps)
        assert calls == []

    def test_a_diverged_window_reads_minus_inf_and_is_named(self):
        # from |x| = 1 the cubic term leaves 1e12 at the second step; from 1e-3 it stays put
        avg = estimate_average(decaying_field, [np.array([1.0]), np.array([-0.5])], T_max=16)
        table = SigmaTable(L=1.0, T_list=(2,), entries={2: 0.5})
        x = np.array([[1e-3], [1.0], [-2e-3]])
        rep = check_drift_remainder(lambda t, x: 1e6 * x**3 - x, avg, table, [0, 1, 2], x, [2] * 3, [0.1, 0.2, 0.1])
        # its end state, near 1e69, is finite, and so was its drift before the divergence rule
        assert not rep.passed and rep.worst_margin == -math.inf
        assert rep.worst_point[0] == 1 and rep.worst_point[1].tolist() == [1.0]
        assert rep.details["worst_sample"] == {"T": 2, "eps": 0.2}


class TestAveragedEvaluator:
    """The averaged certificate's evaluator steps its windows through the
    trajectory kernel with a per-row amplitude and sums V over the table's
    columns in step order: bit for bit the hand-stepped window of each
    row, kept here as the reference."""

    @given(
        data=st.data(),
        srcs=st.sampled_from(DRIVE_FIELDS),
        gains=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        size=st.integers(1, 5),
        marked=st.booleans(),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_evaluator_matches_the_hand_stepped_windows(self, data, srcs, gains, size, marked):
        f = compile_map([parse_expression(src) for src in srcs], dict(zip("ab", gains)))
        field = BatchMap(f) if marked else (lambda t, x: f(t, x))
        V = CandidateFunction.quadratic(np.eye(2))
        avg = estimate_average(field, np.eye(2), T_max=8)
        table = SigmaTable(L=0.5, T_list=(1, 2, 4), entries={1: 0.5, 2: 0.2, 4: 0.1})
        cert = build_averaged_lyapunov(V, (1.0, 1.0, 1.0, 1.0), field, table, avg)
        starts = st.one_of(st.integers(0, 6), st.integers(TABLE_TIMES - 5, TABLE_TIMES + 1))
        k = np.array(data.draw(st.lists(starts, min_size=size, max_size=size)))
        x = np.array(data.draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
                                        min_size=size, max_size=size)))
        eps = np.array(data.draw(st.lists(st.floats(0.0, 0.3), min_size=size, max_size=size)))

        def value(k_i, x_i, eps_i):
            window = reference_window(field, k_i, x_i, eps_i, cert.T_star)
            return sum(V.eval_fn(k_i + j, state) for j, state in enumerate(window))

        rows = list(zip(k.tolist(), x, eps.tolist()))
        want = np.array([value(*row) for row in rows])
        assert cert.evaluator(k, x, eps).tobytes() == want.tobytes()
        shared = np.array([value(k_i, x_i, float(eps[0])) for k_i, x_i, _ in rows])
        assert cert.evaluator(k, x, float(eps[0])).tobytes() == shared.tobytes()
        assert [cert.evaluator(*row) for row in rows] == want.tolist()


def reference_difference_max(points, values):
    """The per-pair loop the sampled Lipschitz estimators used to run: one
    ``np.linalg.norm`` per separation and per value difference."""
    best = None
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            denom = float(np.linalg.norm(points[i] - points[j]))
            if denom < 1e-14:
                continue
            ratio = float(np.linalg.norm(values[i] - values[j])) / denom
            best = ratio if best is None else max(best, ratio)
    return best


def reference_weighted_max(points, values, weights, table_of_row):
    """The per-pair, per-column loop of the fast-map parameter modulus."""
    best = None
    for i in range(len(points)):
        table = values[table_of_row[i]]
        for j in range(i + 1, len(points)):
            dx = float(np.linalg.norm(points[i] - points[j]))
            if dx < 1e-14:
                continue
            for c, w in enumerate(weights):
                if w < 1e-14:
                    continue
                ratio = float(np.linalg.norm(table[i, c] - table[j, c])) / (w * dx)
                best = ratio if best is None else max(best, ratio)
    return best


def hex_or_none(value):
    return None if value is None else float(value).hex()


def estimated_hex(fn, points, times=(0,)):
    """``estimate_lipschitz`` by ``.hex()``, or the ValueError's message."""
    try:
        return estimate_lipschitz(fn, np.array(points), times=times).hex()
    except ValueError as exc:
        return str(exc)


def reference_estimate_hex(points, values_by_time):
    """The per-time loop: ``reference_difference_max`` of each time's
    values, then the maximum, times 1.1."""
    ratios = [reference_difference_max(points, values) for values in values_by_time]
    ratios = [r for r in ratios if r is not None]
    if not ratios:
        return converse_module._NO_PAIR
    return (max(ratios) * converse_module.LIPSCHITZ_SAFETY).hex()


@st.composite
def pair_sets(draw, max_size=65):
    """Points and values as lists of strided row views, with duplicated and
    near-coincident (under 1e-14 apart) points mixed in."""
    d = draw(st.integers(min_value=1, max_value=9))
    size = draw(st.integers(min_value=2, max_value=max_size))
    m = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(seeds))
    wide = rng.standard_normal((size, 2 * d)) * rng.uniform(0.01, 10.0, (size, 1))
    points = [row[::2] for row in wide]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i, j = rng.integers(size, size=2)
        points[i] = points[j].copy()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i, j = rng.integers(size, size=2)
        points[i] = points[j] + 1e-15 * rng.standard_normal(d)
    values = list(rng.standard_normal((size, 2 * m))[:, ::2])
    return points, values


class TestPairwiseQuotientKernel:
    """The vectorized kernel behind every sampled Lipschitz constant must give
    the per-pair loop's maximum bit for bit."""

    @given(sets=pair_sets())
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_one_time_matches_the_pair_loop(self, sets):
        points, values = sets
        expected = reference_estimate_hex(points, [values])
        assert estimated_hex(BatchMap(lambda t, x: np.array(values)), points) == expected

    @given(
        sets=pair_sets(max_size=40),
        times=st.one_of(
            st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=5),
            st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=4),
        ),
        marked=st.booleans(),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_times_match_the_per_time_loop(self, sets, times, marked):
        # repeated, unsorted and float times; one call over (time, point) rows
        points, _ = sets
        calls = []

        def fn(t, x):
            calls.append((t, np.asarray(x).tobytes()))
            t = np.asarray(t, dtype=float)[..., None]
            return (0.5 + 0.25 * t) * x + 0.125 * t * x * x

        expected = reference_estimate_hex(points, [[fn(t, p) for p in points] for t in times])
        calls.clear()
        assert estimated_hex(BatchMap(fn) if marked else fn, points, tuple(times)) == expected
        if not marked:
            assert calls == [(t, p.tobytes()) for t in times for p in points]
        else:
            assert len(calls) == 1

    @given(
        sets=pair_sets(max_size=40),
        columns=st.integers(min_value=1, max_value=12),
        tables=st.integers(min_value=1, max_value=4),
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_weighted_max_matches_the_pair_loop(self, sets, columns, tables, seed):
        points, _ = sets
        size = len(points)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((tables, size, columns, 3))
        weights = np.abs(rng.standard_normal(columns))
        weights[rng.random(columns) < 0.2] = 1e-15  # skipped columns
        table_of_row = rng.integers(tables, size=size)
        expected = reference_weighted_max(points, values, weights, table_of_row)
        got = _max_quotient(np.array(points), values, weights, table_of_row, lambda *_: "bad")
        assert hex_or_none(got) == hex_or_none(expected)

    @pytest.mark.parametrize("width", [1, 7, 64, 5000])
    def test_blocks_cover_the_pairs_in_triu_order(self, width):
        for size in range(0, 70):
            blocks = list(_pair_blocks(size, width))
            rows = np.concatenate([r for r, _ in blocks] or [np.zeros(0, dtype=int)])
            cols = np.concatenate([c for _, c in blocks] or [np.zeros(0, dtype=int)])
            expected = np.triu_indices(size, 1)
            assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])
            assert all(len(r) * width <= 4096 or len(set(r)) == 1 for r, _ in blocks)

    def test_two_vector_whose_axis_norm_rounds_differently(self):
        # With an FMA BLAS dot (numpy 2.x wheels on x86-64), np.linalg.norm(v)
        # and np.linalg.norm(v[None], axis=1) differ in the last bit for this v;
        # the kernel must keep the former.
        v = np.array([0.3, 1.2])
        fn = BatchMap(lambda t, x: np.array([np.zeros(1), np.ones(1)]))
        got = estimate_lipschitz(fn, np.array([np.zeros(2), v]))
        want = 1.0 / float(np.linalg.norm(v)) * converse_module.LIPSCHITZ_SAFETY
        assert got.hex() == want.hex()


class TestRngDeterminism:
    @given(seed=seeds, idx=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=60, deadline=None)
    def test_counter_access_is_stateless(self, seed, idx):
        rng = Rng(seed)
        first = rng.at(idx)
        _ = rng.u64()  # advancing the stateful stream must not disturb at()
        assert rng.at(idx) == first
        assert Rng(seed).at(idx) == first


# ---------------------------------------------------------------------------
# Fail-closed sampled checks: non-finite numbers and empty sample sets


class Poisoned:
    """Wraps a map, field or evaluator: from the ``after``-th call with a
    nonzero state on, every such call returns ``bad`` in place of its value.
    Calls at the origin (equilibrium checks at construction) stay clean."""

    def __init__(self, fn, bad, after):
        self.fn, self.bad, self.after, self.hits = fn, bad, after, 0

    def __call__(self, *args):
        value = self.fn(*args)
        if not any(isinstance(a, np.ndarray) and np.any(a) for a in args):
            return value
        self.hits += 1
        if self.hits <= self.after:
            return value
        out = np.full(np.shape(value), self.bad)
        return out if out.ndim else float(out)


def half_map(t, x):
    return 0.5 * np.asarray(x, dtype=float)


def quadratic_map(t, x):
    x = np.asarray(x, dtype=float)
    return 0.5 * x + x**2


def decaying_field(k, x):
    return -np.asarray(x, dtype=float)


def slow_fast_pair():
    return SlowFastSystem(
        dim_x=1,
        dim_y=1,
        phi=lambda k, x, y: -x + y,
        varphi=lambda k, y, x: 0.5 * y,
        ystar=lambda x: np.zeros(1),
        epsilon=0.01,
    )


@pytest.fixture(scope="module")
def composite():
    return certify_semiglobal(slow_fast_pair(), r=1.0, V_slow=CandidateFunction.quadratic(np.eye(1)))


def square_norm(t, x):
    return float(np.asarray(x) @ np.asarray(x))


def poisoned_candidate(bad, after, composite):
    V = CandidateFunction(Poisoned(square_norm, bad, after), dim=2)
    sys = DynSystem(2, half_map)
    grid = shell_grid(2, 1.0, n_shells=2, n_directions=4)
    return [
        check_positive_definite(V, grid),
        check_decrease(V, sys, grid),
        check_decrease(V, sys, grid, strict=True),
    ]


def poisoned_map(bad, after, composite):
    V = CandidateFunction(square_norm, dim=2)
    sys = DynSystem(2, Poisoned(half_map, bad, after))
    grid = shell_grid(2, 1.0, n_shells=2, n_directions=4)
    cert = certify_local_autonomous(DynSystem(1, quadratic_map))
    basin_sys = DynSystem(1, Poisoned(quadratic_map, bad, after))
    pair = slow_fast_pair()
    pair = replace(pair, phi=Poisoned(pair.phi, bad, after))
    return [
        check_decrease(V, sys, grid),
        check_decrease(V, sys, grid, strict=True),
        validate_basin(basin_sys, cert, trials=4),
        validate_rate(pair, composite, trials=2, horizon=5),
    ]


def poisoned_evaluator(bad, after, composite):
    sys = DynSystem(1, half_map)
    cert = build_trajectory_converse(sys, ExponentialEnvelope(gain=2.0, rate=math.log(2.0)))
    cert = replace(cert, evaluator=Poisoned(cert.evaluator, bad, after))
    rng = Rng(7)
    (xs,) = rng.draw(8, ("ball", 1, 1.0))
    reports = verify_converse(cert, np.zeros(8, dtype=int), xs, None)
    fast = composite.fast_cert
    fast = replace(fast, evaluator=Poisoned(fast.evaluator, bad, after))
    ks, yerrs, xs = rng.draw(8, ("integer", 0, 3), ("ball", 1, 1.0), ("ball", 1, 1.0))
    reports += verify_converse(fast, ks, yerrs, xs)
    joint = replace(composite, evaluator=Poisoned(composite.evaluator, bad, after))
    return reports + verify_composite(slow_fast_pair(), joint, n_samples=4)


def poisoned_field(bad, after, composite):
    probes = [np.array([1.0]), np.array([-0.5])]
    avg = estimate_average(decaying_field, probes, T_max=16)
    table = estimate_sigma(decaying_field, avg, [2, 4])
    xs = np.array([[1.0], [-0.5], [0.25], [0.75]])
    field = Poisoned(decaying_field, bad, after)
    return [check_drift_remainder(field, avg, table, np.zeros(4, dtype=int), xs, np.full(4, 2), np.full(4, 1e-3))]


class TestFailClosed:
    @pytest.mark.parametrize(
        "build",
        [poisoned_candidate, poisoned_map, poisoned_evaluator, poisoned_field],
        ids=lambda f: f.__name__,
    )
    @given(bad=st.sampled_from([math.nan, math.inf, -math.inf]), after=st.integers(0, 2))
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_non_finite_values_fail_every_check(self, build, bad, after, composite):
        with np.errstate(all="ignore"):
            reports = build(bad, after, composite)
        assert reports
        for rep in reports:
            assert not rep.passed, f"{rep.condition} passed with {bad} injected"
            assert not rep.worst_margin >= 0.0

    @pytest.mark.parametrize("before, after", [(math.inf, math.inf), (math.inf, 1.0), (1.0, math.inf)])
    def test_diverged_windows_fail_the_composite_checks_quietly(self, composite, before, after):
        # U reads inf where a window diverges.  inf before and after the step
        # makes du = inf - inf, and inf before alone makes the rate slack
        # -inf + inf: each is a NaN slack, with no numeric warning
        values = iter([before, after])  # U at the samples, then after the step

        @BatchMap
        def evaluator(k, x, yerr, eps):
            return np.full(len(x), next(values))

        reports = verify_composite(slow_fast_pair(), replace(composite, evaluator=evaluator), n_samples=4)
        sandwich, decrement, rate = reports
        assert not decrement.passed and not decrement.worst_margin >= 0.0
        assert not rate.passed and not rate.worst_margin >= 0.0
        assert sandwich.passed is (before == 1.0 and sandwich.worst_margin >= 0.0)

    def test_positive_definite_on_all_zero_grid(self):
        V = CandidateFunction(square_norm, dim=2)
        rep = check_positive_definite(V, np.zeros((4, 2)))
        assert rep.samples_checked == 0
        assert not rep.passed

    def test_converse_without_samples(self):
        sys = DynSystem(1, half_map)
        cert = build_trajectory_converse(sys, ExponentialEnvelope(gain=2.0, rate=math.log(2.0)))
        reports = verify_converse(cert, np.zeros(0, dtype=int), np.zeros((0, 1)), None)
        assert len(reports) == 3
        assert not any(rep.passed for rep in reports)

    def test_basin_without_trials(self):
        sys = DynSystem(1, quadratic_map)
        rep = validate_basin(sys, certify_local_autonomous(sys), trials=0)
        assert rep.samples_checked == 0
        assert not rep.passed

    def test_rate_with_every_amplitude_out_of_certificate(self, composite):
        grid = (composite.eps_r, 2.0 * composite.eps_r)
        rep = validate_rate(slow_fast_pair(), composite, eps_grid=grid, trials=3)
        assert rep.samples_checked == 0
        assert rep.details["eps_out_of_certificate"] == list(grid)
        assert not rep.passed

    def test_drift_remainder_on_zero_states_only(self):
        probes = [np.array([1.0]), np.array([-0.5])]
        avg = estimate_average(decaying_field, probes, T_max=16)
        table = estimate_sigma(decaying_field, avg, [2])
        rep = check_drift_remainder(decaying_field, avg, table, [0] * 3, np.zeros((3, 1)), [2] * 3, [1e-3] * 3)
        assert rep.samples_checked == 0
        assert not rep.passed


# ---------------------------------------------------------------------------
# Composite checks: every amplitude in one batch against the per-amplitude loops


def reference_verify_composite(sysf, cert, n_samples, eps_values, seed):
    """The per-amplitude loop ``verify_composite`` ran: U, the step and U
    after it, one call each over the samples at one amplitude at a time.
    It returns the ``from_slack`` arguments of its three reports."""
    if eps_values is None:
        eps_values = np.geomspace(cert.eps_r / 8.0, cert.eps_r * (1.0 - 1e-9), 4)
    ks, x, yerr = _stacked_samples(sysf, cert.r, n_samples, Rng(seed))
    slack = {SANDWICH: [], DECREMENT_DOMINATION: [], RATE_REALIZATION: []}
    z2 = _row_squares(x) + _row_squares(yerr)
    zvec = np.column_stack([_row_norms(x), _row_norms(yerr)])
    rounds = [float(e) for e in eps_values] if len(ks) else []
    for eps in rounds:
        q = q_matrix(cert.coeffs, eps)
        u0 = cert.evaluator(ks, x, yerr, eps)
        slack[SANDWICH].append(_first_min(u0 - cert.alpha * z2, cert.beta * z2 - u0) + TOL_ABS)
        x1, yerr1 = _error_step(sysf, ks, x, yerr, eps)
        du = cert.evaluator(ks + 1, x1, yerr1, eps) - u0
        form = np.vecdot(np.matmul(zvec[:, None, :], q)[:, 0, :], zvec)
        slack[DECREMENT_DOMINATION].append(form + TOL_ABS - du)
        slack[RATE_REALIZATION].append(-eps * cert.gamma_r * u0 + TOL_ABS - du)
    times, states = np.tile(ks, len(rounds)), np.tile(np.hstack([x, yerr]), (len(rounds), 1))
    details = {"eps_values": [float(e) for e in eps_values]}
    return [(name, values, times, states, dict(details)) for name, values in slack.items()]


def reference_validate_rate(sysf, cert, eps_grid, trials, horizon, seed):
    """The per-amplitude loop ``validate_rate`` ran: each amplitude's trials
    drawn, then stepped together, before the next amplitude's draw, with
    the divergence rule of the trajectory kernel: a trial reads -inf at the
    first step its state diverges, the first non-finite margin of its row.
    It returns the ``from_slack`` arguments of its report."""
    rng = Rng(seed)
    skipped = [float(e) for e in eps_grid if not (0.0 < e < cert.eps_r)]
    used = [float(e) for e in eps_grid if 0.0 < e < cert.eps_r]
    times, starts, slack = [], [], []
    for eps in used:
        if trials < 1:
            break
        (z,) = rng.draw(trials, ("ball", sysf.dim_x + sysf.dim_y, cert.r))
        x = z[:, : sysf.dim_x].copy()
        y = z[:, sysf.dim_x:] + sysf.ystar(x)
        decay = 1.0
        margins = np.empty((trials, horizon + 1))
        margins[:, 0] = cert.C_r * decay + TOL_ABS - _row_squares(x)
        for k in range(horizon):
            x, y = sysf.step(k, x, y, eps)
            decay *= 1.0 - eps * cert.gamma_r
            margins[:, k + 1] = cert.C_r * decay + TOL_ABS - _row_squares(x)
            # a trial whose (x, y) is NaN or infinite or has norm above 1e12 has diverged: -inf
            margins[~(_row_norms(np.hstack([x, y])) <= 1e12), k + 1] = -math.inf
        for row in margins:
            k = certcheck.worst_index(row)
            times.append(k)
            slack.append(float(row[k]))
        starts.extend(z)
    details = {"eps_used": used, "eps_out_of_certificate": skipped, "horizon": horizon}
    return [(CERTIFIED_RATE, slack, times, starts, details)]


def slack_bytes(reports):
    """``from_slack`` arguments as bytes: the name, then the bytes of the
    slacks, times and states, then the details."""
    return [(name, np.asarray(slack, dtype=float).tobytes(), np.asarray(times, dtype=int).tobytes(),
             len(states), np.asarray(states, dtype=float).tobytes(), details)
            for name, slack, times, states, details in reports]


def reported(check):
    """The ``from_slack`` arguments of every report ``check()`` makes."""
    calls = []
    real = ConditionReport.from_slack.__func__

    def record(cls, *args):
        calls.append(args)
        return real(cls, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ConditionReport, "from_slack", classmethod(record))
        check()
    return calls


def rate_pair(a, b, d, g, c, marked):
    """A one-by-one slow/fast pair with a time-varying slow gain and a
    manifold ystar(x) = g*x, wrapped as ``BatchMap``s or not; a large cubic
    term c makes some trials diverge within a few steps."""

    def column(k, x):  # exact integer arithmetic, so a batch rounds as its rows do
        return np.reshape(k, (-1, 1)) if np.ndim(k) else k

    def phi(k, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return -(a + 0.5 * (column(k, x) % 2)) * x + c * x ** 3 + b * (y - g * x)

    def varphi(k, y, x):
        return d * np.asarray(y, dtype=float) + (1.0 - d) * g * np.asarray(x, dtype=float)

    def ystar(x):
        return g * np.asarray(x, dtype=float)

    wrap = BatchMap if marked else (lambda fn: fn)
    return SlowFastSystem(dim_x=1, dim_y=1, phi=wrap(phi), varphi=wrap(varphi), ystar=wrap(ystar))


@st.composite
def rate_pairs(draw):
    """:func:`rate_pair` with drawn gains, cubic term 0 or 1e9 and mark."""
    a, b = draw(st.floats(0.1, 2.0)), draw(st.floats(-1.0, 1.0))
    d, g = draw(st.floats(0.0, 0.9)), draw(st.floats(-1.0, 1.0))
    return rate_pair(a, b, d, g, draw(st.sampled_from([0.0, 1e9])), draw(st.booleans()))


amplitude_fractions = st.one_of(
    st.lists(st.floats(0.01, 2.0), max_size=4),
    st.lists(st.floats(1.0, 2.0), min_size=1, max_size=3),  # every amplitude at or above eps_r
)


class TestAmplitudeBatch:
    """``verify_composite`` and ``validate_rate`` step every amplitude as
    one batch with a per-row amplitude.  Each report's verdict, slacks,
    times, states and details equal bit for bit those of the
    per-amplitude loop it replaced, kept here as the reference, for a
    marked and an unmarked pair and a marked and an unmarked evaluator."""

    @given(pair=rate_pairs(), fractions=st.none() | amplitude_fractions, n_samples=st.integers(0, 5),
           marked=st.booleans(), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_composite_matches_the_per_amplitude_loop(self, composite, pair, fractions, n_samples, marked, seed):
        cert = composite if marked else replace(composite, evaluator=lambda *args: composite.evaluator(*args))
        eps = None if fractions is None else [f * cert.eps_r for f in fractions]
        with np.errstate(all="ignore"):
            want = reference_verify_composite(pair, cert, n_samples, eps, seed)
            got = reported(lambda: verify_composite(pair, cert, n_samples=n_samples, eps_values=eps, seed=seed))
        assert slack_bytes(got) == slack_bytes(want)

    @given(pair=rate_pairs(), fractions=amplitude_fractions, trials=st.integers(0, 4),
           horizon=st.integers(0, 12), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_rate_matches_the_per_amplitude_loop(self, composite, pair, fractions, trials, horizon, seed):
        eps = [f * composite.eps_r for f in fractions]
        with np.errstate(all="ignore"):
            want = reference_validate_rate(pair, composite, eps, trials, horizon, seed)
            got = reported(lambda: validate_rate(pair, composite, eps, trials, horizon, seed))
        assert slack_bytes(got) == slack_bytes(want)

    @pytest.mark.parametrize("marked", [False, True])
    def test_a_diverged_trial_reads_minus_inf_at_its_divergence_step(self, composite, marked):
        pair = rate_pair(1.0, 0.5, 0.5, 0.5, 1e9, marked)
        eps = [composite.eps_r / 4.0]
        rep = validate_rate(pair, composite, eps, trials=4, horizon=12, seed=5)
        with np.errstate(all="ignore"):  # the reference steps on past the divergence
            ((_, slack, times, starts, _),) = reference_validate_rate(pair, composite, eps, 4, 12, 5)
        i = certcheck.worst_index(slack)
        assert not rep.passed and rep.worst_margin == slack[i] == -math.inf
        assert rep.worst_point[0] == times[i] and rep.worst_point[1].tobytes() == starts[i].tobytes()
        # the state at that step is finite: only the 1e12 limit calls it diverged
        z = np.concatenate([starts[i][:1], starts[i][1:] + 0.5 * starts[i][:1]])
        states, diverged = trajectories(pair.stacked_step, 0, z[None], times[i] - 1, np.array(eps))
        last = pair.stacked_step(times[i] - 1, states[0, -1], eps[0])
        assert diverged[0] == 0 and np.isfinite(last).all() and np.linalg.norm(last) > 1e12


# ---------------------------------------------------------------------------
# One trajectory kernel: batched rows against the one-state loops it replaced


def reference_simulate(sys, t0, x0, horizon):
    """The one-state loop ``simulate`` was built with: its states, or the
    DivergenceError it raised."""
    x = np.asarray(x0, dtype=float).reshape(-1)
    states = np.empty((horizon + 1, sys.dim))
    states[0] = x
    for j in range(horizon):
        x = sys.step(t0 + j, x)
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > 1e12:
            raise DivergenceError(f"trajectory diverged at step {j + 1} (t={t0 + j + 1})", step=j + 1)
        states[j + 1] = x
    return states


def reference_basin(sys, cert, trials, seed, limit=1e12):
    """The trial-by-trial loop of ``validate_basin``, with the divergence rule
    of the kernel (non-finite, or norm above ``limit``): slacks and details."""
    delta, eq = cert.delta_bar, np.asarray(cert.equilibrium, dtype=float)
    threshold = 1e-10 * delta
    rng = Rng(seed)
    slack, failures, longest = [], 0, 0
    details = {"threshold": threshold, "max_steps": 10_000}
    for _ in range(trials):
        x = eq + rng.ball(sys.dim, delta)
        converged = False
        for step in range(1, 10_001):
            x = sys.step(step - 1, x)
            if not np.all(np.isfinite(x)) or np.linalg.norm(x) > limit:
                details["divergence_step"] = step
                err = math.inf
                break
            err = float(np.linalg.norm(x - eq))
            if err <= threshold:
                converged = True
                longest = max(longest, step)
                break
        failures += not converged
        slack.append((threshold - err) / delta)
    details["failures"] = failures
    details["longest_run"] = longest
    return slack, details


def reference_envelope_hypothesis(sysf, env, samples, horizon=12):
    """The prefix-shrinking loop of ``check_envelope_hypothesis``."""
    ks, xs, y = samples
    base = _row_norms(y)
    failed, failed_at = len(ks), None
    fast = sysf.shifted_fast(xs)
    for t in range(horizon):
        if t:
            y = fast(ks[:failed] + t - 1, y)
        bound = env.gain * base[:failed] * math.exp(-env.rate * t) + TOL_ABS
        outside = np.flatnonzero(~(_row_norms(y) <= bound))
        if outside.size:
            failed, failed_at = int(outside[0]), t
            if not failed:
                break
            y = y[:failed]
            fast = sysf.shifted_fast(xs[:failed])
    if failed_at is not None:
        raise HypothesisViolationError(f"envelope violated at offset {failed_at} from k={ks[failed]}")


def reference_fast_value(sysf, T, k, yerr, frozen_x):
    """The fast certificate's evaluator at one sample, as its step loop."""
    y = np.asarray(yerr, dtype=float)
    fast = sysf.shifted_fast(np.asarray(frozen_x, dtype=float))
    total = 0.0
    for t in range(T):
        total += float(y @ y)
        if t + 1 < T:
            y = fast(k + t, y)
    return total


KERNEL_MAP = compile_map(
    [parse_expression("0.6*x[0] - 0.3*x[1]^2 + 0.2*sin(t)*x[1]"),
     parse_expression("0.25*x[0] + 0.5*tanh(x[1]) - 0.1*x[0]*x[1]")]
)


def kernel_system(marked, autonomous):
    fn = BatchMap(KERNEL_MAP) if marked else (lambda t, x: KERNEL_MAP(t, x))
    return DynSystem(2, fn, autonomous=autonomous)


def reference_stacked_system(sysf):
    """The one-state stacked map ``simulate`` stepped a slow/fast pair with
    before ``SlowFastSystem.system``: (x, y) as one unmarked map, one
    ``SlowFastSystem.step`` per state."""
    nx = sysf.dim_x

    def map_fn(k, z):
        return np.concatenate(sysf.step(k, z[:nx], z[nx:], sysf.epsilon))

    eq = np.concatenate([np.zeros(nx), np.asarray(sysf.ystar(np.zeros(nx)), dtype=float)])
    return DynSystem(dim=nx + sysf.dim_y, map_fn=map_fn, autonomous=False, equilibrium=eq)


def exact_rows(compute):
    """Bytes of every row, or the exception type, message and step."""
    try:
        rows = compute()
    except DivergenceError as exc:
        return type(exc), str(exc), exc.step
    return [np.asarray(r, dtype=float).tobytes() for r in rows]


starts_2d = st.lists(
    st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=2, max_size=2), min_size=1, max_size=6
)


class TestTrajectoryKernel:
    @given(starts=starts_2d, horizon=st.integers(0, 12), times=st.lists(st.integers(0, 9), min_size=6, max_size=6),
           marked=st.booleans(), autonomous=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_batch_rows_match_the_one_state_loop(self, starts, horizon, times, marked, autonomous):
        sys = kernel_system(marked, autonomous)
        X = np.array(starts)
        for t0 in (3, np.array(times[: len(X)])):
            t0s = np.broadcast_to(t0, len(X)).tolist()
            want = exact_rows(lambda: [reference_simulate(sys, t, x, horizon) for t, x in zip(t0s, X)])
            got = simulate(sys, t0, X, horizon)
            assert got.shape == (len(X), horizon + 1, 2) and exact_rows(lambda: got) == want
            one = simulate(sys, t0s[0], X[0], horizon)
            assert one.shape == (horizon + 1, 2) and one.tobytes() == want[0]

    def test_divergence_names_the_first_diverging_row(self):
        # row 1 leaves 1e12 at step 13 and row 2 already at step 7; row order decides
        sys = DynSystem(1, lambda t, x: 10.0 * x, autonomous=False)
        X = np.array([[0.0], [1.0], [1e6]])
        t0 = np.array([0, 2, 5])
        with pytest.raises(DivergenceError) as err:
            simulate(sys, t0, X, 20)
        assert str(err.value) == "trajectory diverged at step 13 (t=15)" and err.value.step == 13
        with pytest.raises(DivergenceError) as ref:
            reference_simulate(sys, 2, X[1], 20)
        assert str(ref.value) == str(err.value)

    def test_diverged_rows_leave_with_nan_states(self):
        calls = []

        def blow_up(t, x):
            calls.append(x.copy())
            return np.full(1, np.nan) if x[0] > 2.5 else 2.0 * x

        states, diverged = trajectories(blow_up, 0, np.array([[1.0], [0.0], [3.0]]), 4)
        assert diverged.tolist() == [3, 0, 1]
        assert states[0, :, 0].tolist()[:3] == [1.0, 2.0, 4.0] and np.isnan(states[0, 3:]).all()
        assert np.isnan(states[2, 1:]).all() and states[1, :, 0].tolist() == [0.0] * 5
        # a row is stepped until it diverges, then never again
        assert [c[0] for c in calls] == [1.0, 0.0, 3.0, 2.0, 0.0, 4.0, 0.0, 0.0]

    def test_stopped_rows_leave_after_the_state_that_meets_the_test(self):
        calls = []

        def halve(t, x):
            calls.append(x[:, 0].tolist())
            return 0.5 * x

        X = np.array([[1.0], [4.0], [0.0], [-64.0]])
        states, diverged = trajectories(BatchMap(halve), 0, X, 5, stop=lambda x: np.abs(x[:, 0]) <= 1.0)
        assert diverged.tolist() == [0, 0, 0, 0]
        # the first state at or below 1 in modulus is kept, the later ones are NaN
        assert states[0, :2, 0].tolist() == [1.0, 0.5] and np.isnan(states[0, 2:]).all()
        assert states[1, :3, 0].tolist() == [4.0, 2.0, 1.0] and np.isnan(states[1, 3:]).all()
        assert states[2, :2, 0].tolist() == [0.0, 0.0] and np.isnan(states[2, 2:]).all()
        assert states[3, :, 0].tolist() == [-64.0, -32.0, -16.0, -8.0, -4.0, -2.0]
        # the start is not tested; each row is stepped until it meets the test
        assert calls == [[1.0, 4.0, 0.0, -64.0], [2.0, -32.0], [-16.0], [-8.0], [-4.0]]

    @given(starts=starts_2d, horizon=st.integers(0, 12), marked=st.booleans(), radius=st.floats(0.05, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_stopped_rows_are_the_rows_of_the_full_table(self, starts, horizon, marked, radius):
        # a row leaves at its first state within radius, and up to that state
        # its bytes are those it has when every row runs the whole horizon
        sys = kernel_system(marked, False)
        X = np.array(starts)
        full, _ = trajectories(sys.step, 2, X, horizon)
        stopped, _ = trajectories(sys.step, 2, X, horizon, stop=lambda x: _row_norms(x) <= radius)
        for row, got in zip(full, stopped):
            inside = np.flatnonzero(_row_norms(row[1:]) <= radius)
            end = inside[0] + 2 if inside.size else len(row)
            assert got[:end].tobytes() == row[:end].tobytes() and np.isnan(got[end:]).all()

    @pytest.mark.parametrize("horizon", [-1, -2, 2.5, np.array([1, 2, 3, 4])])
    def test_a_malformed_horizon_is_refused_before_any_map_call(self, composite, horizon):
        calls = []

        def counted(fn):
            return lambda *args: calls.append(args) or fn(*args)

        sys = DynSystem(1, counted(half_map))
        pair = replace(slow_fast_pair(), phi=counted(lambda k, x, y: -x + y),
                       varphi=counted(lambda k, y, x: 0.5 * y), ystar=counted(lambda x: np.zeros(1)))
        stacked = pair.system()
        calls.clear()  # drop the construction-time equilibrium probes
        for call in (
            lambda: trajectories(sys.step, 0, np.ones((2, 1)), horizon),
            lambda: simulate(sys, 0, np.ones(1), horizon),
            lambda: simulate(stacked, 0, np.ones(2), horizon),
            lambda: validate_rate(pair, composite, trials=2, horizon=horizon),
        ):
            with pytest.raises(ValueError, match="horizon must be a nonnegative int"):
                call()
        assert calls == []

    @given(pair=rate_pairs(), starts=starts_2d, horizon=st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_slow_fast_simulate_matches_the_one_state_stacked_loop(self, pair, starts, horizon):
        Z = np.array(starts)
        ref, sys = reference_stacked_system(pair), pair.system()
        assert sys.equilibrium.tobytes() == ref.equilibrium.tobytes()
        want = exact_rows(lambda: [reference_simulate(ref, 0, z, horizon) for z in Z])
        assert exact_rows(lambda: simulate(sys, 0, Z, horizon)) == want
        one = exact_rows(lambda: [simulate(sys, 0, Z[0], horizon)])
        assert one == exact_rows(lambda: [reference_simulate(ref, 0, Z[0], horizon)])

    @pytest.mark.parametrize("marked", [False, True])
    def test_slow_fast_simulate_raises_as_the_one_state_stacked_loop(self, marked):
        # row 1 leaves 1e12 at step 2; row 0 sits at the equilibrium
        pair = rate_pair(1.0, 0.5, 0.5, 0.5, 1e9, marked)
        Z = np.array([[0.0, 0.0], [1.0, 0.5]])
        with pytest.raises(DivergenceError) as err:
            simulate(pair.system(), 0, Z, 10)
        with pytest.raises(DivergenceError) as ref:
            reference_simulate(reference_stacked_system(pair), 0, Z[1], 10)
        assert str(err.value) == str(ref.value) == "trajectory diverged at step 2 (t=2)"

    @given(seed=st.integers(0, 2**16), c=st.floats(0.3, 0.9), trials=st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_basin_matches_the_trial_loop(self, seed, c, trials):
        # x -> x^2 / c converges inside |x| < c and leaves 1e12 outside it
        sys = DynSystem(1, lambda t, x: np.asarray(x) ** 2 / c)
        cert = LocalCertificate(STABLE, np.zeros(1), None, None, delta_bar=1.0)
        rep = validate_basin(sys, cert, trials=trials, seed=seed)
        slack, details = reference_basin(sys, cert, trials, seed)
        rng = Rng(seed)
        points = [(0, rng.ball(1, 1.0)) for _ in range(trials)]
        assert report_bytes(rep) == report_bytes(report_at(BASIN_CONVERGENCE, slack, points))
        assert list(rep.details.items()) == list(details.items())

    def test_divergence_step_is_the_last_diverging_trial(self):
        # trials 2 and 5 start outside |x| < c and diverge; trial 5 does so first
        rng = Rng(174)
        starts = np.array([rng.ball(1, 1.0)[0] for _ in range(6)])
        order = np.argsort(-np.abs(starts))
        assert sorted(order[:2].tolist()) == [2, 5] and abs(starts[5]) > abs(starts[2])
        c = 0.5 * (abs(starts[2]) + abs(starts[order[2]]))
        sys = DynSystem(1, lambda t, x: np.asarray(x) ** 2 / c)
        cert = LocalCertificate(STABLE, np.zeros(1), None, None, delta_bar=1.0)
        rep = validate_basin(sys, cert, trials=6, seed=174)
        steps = [-1, -1]
        for i, trial in enumerate((2, 5)):
            with pytest.raises(DivergenceError) as err:
                simulate(sys, 0, starts[trial : trial + 1], 100)
            steps[i] = err.value.step
        assert steps[0] > steps[1]
        assert rep.details["divergence_step"] == steps[1]
        assert rep.details["failures"] == 2

    def test_basin_fails_a_finite_trial_beyond_the_divergence_limit(self):
        # grows by 1e9 a step: finite for all 10,000 steps, above 1e12 from step 1,000 on
        sys = DynSystem(1, lambda t, x: np.asarray(x) + 1e9 * np.sign(x))
        cert = LocalCertificate(STABLE, np.zeros(1), None, None, delta_bar=1.0)
        rep = validate_basin(sys, cert, trials=2, seed=3)
        assert not rep.passed and rep.worst_margin == -math.inf
        assert rep.details["divergence_step"] == 1000 and rep.details["failures"] == 2
        # the old rule (non-finite only) ran the budget out with a finite slack
        slack, details = reference_basin(sys, cert, 2, 3, limit=math.inf)
        assert all(math.isfinite(s) and s < 0 for s in slack) and "divergence_step" not in details

    @given(seed=st.integers(0, 2**16), gain=st.floats(1.0, 2.0), ratio=st.floats(0.3, 0.95),
           horizon=st.integers(0, 10), size=st.integers(1, 6), poison=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_envelope_hypothesis_matches_the_prefix_loop(self, seed, gain, ratio, horizon, size, poison):
        sysf = SlowFastSystem(
            dim_x=1,
            dim_y=2,
            phi=lambda k, x, y: -x,
            varphi=lambda k, y, x: (np.full(2, np.nan) if poison and abs(y[0]) > 0.9
                                    else (0.5 + 0.45 * x[0] * math.cos(k)) * y),
            ystar=lambda x: np.zeros(2),
        )
        rng = Rng(seed)
        samples = SlowFastSamples(*rng.draw(size, ("integer", 0, 3), ("ball", 1, 1.0), ("ball", 2, 1.0)))
        env = ExponentialEnvelope(gain=gain, rate=-math.log(ratio))

        def outcome_of(check):
            try:
                check(sysf, env, samples, horizon)
            except HypothesisViolationError as exc:
                return str(exc)
            return None

        assert outcome_of(check_envelope_hypothesis) == outcome_of(reference_envelope_hypothesis)

    @given(starts=starts_2d, times=st.lists(st.integers(0, 9), min_size=6, max_size=6),
           marked=st.booleans(), autonomous=st.booleans(), rate=st.sampled_from([0.7, 0.05, 4e-4]))
    @settings(max_examples=40, deadline=None)
    def test_trajectory_evaluator_matches_its_simulate_loop(self, starts, times, marked, autonomous, rate):
        sys = kernel_system(marked, autonomous)
        cert = build_trajectory_converse(sys, ExponentialEnvelope(gain=1.5, rate=rate))
        X, ks = 0.3 * np.array(starts), np.array(times[: len(starts)])
        want = [
            float(np.sum(s * s))
            for s in (reference_simulate(sys, 0 if autonomous else k, x, cert.horizon - 1) for k, x in zip(ks, X))
        ]
        assert cert.evaluator(ks, X, None).tobytes() == np.array(want).tobytes()
        assert cert.evaluator(int(ks[0]), X[0]) == want[0]

    @given(seed=st.integers(0, 2**16), size=st.integers(1, 6), T=st.integers(1, 30), frozen=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_fast_evaluator_matches_its_running_total(self, seed, size, T, frozen):
        sysf = SlowFastSystem(
            dim_x=2,
            dim_y=2,
            phi=lambda k, x, y: -x,
            varphi=lambda k, y, x: (0.5 + 0.3 * math.tanh(x[0] - x[1]) * math.sin(k)) * (y - x[0] * x) + x[0] * x,
            ystar=lambda x: x[0] * np.asarray(x, dtype=float),
        )
        cert = converse_module._fast_certificate(sysf, T, a3=0.5, kind="exponential", L1=0.9, L2=0.1)
        rng = Rng(seed)
        ks = np.array([rng.integer(0, 3) for _ in range(size)])
        Y = np.array([rng.ball(2, 1.0) for _ in range(size)])
        Xs = np.array([rng.ball(2, 0.8) for _ in range(size)]) if frozen else np.zeros((size, 2))
        want = [reference_fast_value(sysf, T, k, y, x) for k, y, x in zip(ks, Y, Xs)]
        got = cert.evaluator(ks, Y, Xs if frozen else None)
        assert got.tobytes() == np.array(want).tobytes()
        assert cert.evaluator(int(ks[0]), Y[0], Xs[0] if frozen else None) == want[0]


def reference_fast_lipschitz(sysf, samples):
    """The per-sample-closure loop ``_fast_lipschitz`` ran: one
    ``shifted_fast`` closure per sample, each reading ystar of its own
    frozen state and reduced to its L1 quotient before the next, then a
    closure over the repeated frozen states for the rows at the other k."""
    ks, xs, ys = samples
    size = len(ks)
    fasts = [sysf.shifted_fast(x) for x in xs]
    distinct = sorted(set(ks.tolist()))
    values = np.empty((len(distinct), size, size, sysf.dim_y))
    l1_by_sample = []
    for i, (k, fast) in enumerate(zip(ks.tolist(), fasts)):
        row = values[distinct.index(k), i] = fast(k, ys)
        finite = np.isfinite(row).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite map value at t={k}, x={ys[int(np.argmin(finite))].tolist()}")
        ratio = reference_difference_max(ys, row)
        if ratio is None:
            raise ValueError(converse_module._NO_PAIR)
        l1_by_sample.append(ratio)
    rest = [(c, i) for c, k in enumerate(distinct) for i in range(size) if ks[i] != k]
    if rest:
        tables, rows = np.array(rest).T
        frozen = np.repeat(xs[rows], size, axis=0)
        times = np.repeat(np.array(distinct)[tables], size)
        rest_values = sysf.shifted_fast(frozen)(times, np.tile(ys, (len(rest), 1)))
        values[tables, rows] = rest_values.reshape(len(rest), size, sysf.dim_y)

    def describe(i, j, c):
        return (
            f"non-finite fast-map parameter quotient at k={ks[i]}, y={ys[c].tolist()}, "
            f"x1={xs[i].tolist()}, x2={xs[j].tolist()}"
        )

    table_of_row = np.array([distinct.index(k) for k in ks.tolist()], dtype=int)
    l2 = _max_quotient(xs, values, _row_norms(ys), table_of_row, describe)
    safety = converse_module.LIPSCHITZ_SAFETY
    return max(l1_by_sample) * safety, (l2 or 0.0) * safety


def logged_fast_pair(marked, poison):
    """A slow/fast pair whose fast map logs the (k, y, x) bytes of every row
    it is called with, in call order, and the number of calls; a poisoned
    map returns NaN at k = 0 for x[0] > 0.5.  ystar is one product, so a
    batch and its one-state calls agree bit for bit."""
    log = []

    def varphi(k, y, x):
        k, y, x = np.asarray(k), np.asarray(y, dtype=float), np.asarray(x, dtype=float)
        shape = np.broadcast_shapes(k.shape, y.shape[:-1], x.shape[:-1])

        def rows(a, width):
            return np.broadcast_to(a, shape + width).reshape((-1,) + width)

        log.append([tuple(r.tobytes() for r in row) for row in zip(rows(k, ()), rows(y, (2,)), rows(x, (2,)))])
        gain = 0.5 + 0.3 * np.tanh(x[..., 0] - x[..., 1]) * np.sin(k)
        value = gain[..., None] * (y - x[..., :1] * x) + x[..., :1] * x
        if poison:
            value = np.where(((k == 0) & (x[..., 0] > 0.5))[..., None], np.nan, value)
        return value

    def ystar(x):
        x = np.asarray(x, dtype=float)
        return x[..., :1] * x

    if marked:
        varphi, ystar = BatchMap(varphi), BatchMap(ystar)
    sysf = SlowFastSystem(dim_x=2, dim_y=2, phi=lambda k, x, y: -x, varphi=varphi, ystar=ystar)
    log.clear()  # drop the construction-time equilibrium probes
    return sysf, log


class TestFastLipschitzTable:
    @given(seed=seeds, size=st.integers(1, 7), marked=st.booleans(), poison=st.booleans(),
           one_x=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_sample_closures(self, seed, size, marked, poison, one_x):
        samples = converse_module._fast_sample_set(logged_fast_pair(False, False)[0], 1.0, size, seed)
        if one_x:  # every slow state equal: no pair separates, L2 stays 0
            samples = SlowFastSamples(samples.k, np.repeat(samples.x[:1], size, axis=0), samples.yerr)
        outcomes, logs = [], []
        for fast_lipschitz in (converse_module._fast_lipschitz, reference_fast_lipschitz):
            sysf, log = logged_fast_pair(marked, poison)
            outcomes.append(exact(lambda: fast_lipschitz(sysf, samples)))
            logs.append(log)
        assert outcomes[0] == outcomes[1]
        # the table is one call; the reference stops at its first failure
        if marked:
            assert len(logs[0]) == 1
        if not isinstance(outcomes[0], tuple):
            assert sum(logs[0], []) == sum(logs[1], [])


# ---------------------------------------------------------------------------
# Envelope fit from the kernel's (S, H+1, n) state table


def reference_fit(t0s, table):
    """The per-trajectory loop the envelope was fitted with when each row
    was a separate trajectory object: row i is ``table[i]``, started at
    ``t0s[i]``, its norms one ``np.linalg.norm(axis=1)`` of that row.
    Returns the envelope, and the row that raised a refusal (or None)."""
    rows = [(t0, np.linalg.norm(states, axis=1)) for t0, states in zip(t0s, table)]
    rates = []
    for i, (t0, norms) in enumerate(rows):
        try:
            if not np.all(np.isfinite(norms)):
                step = int(np.argmax(~np.isfinite(norms)))
                raise NotExponentiallyStableError(f"trajectory from t0={t0} has a non-finite state at step {step}")
            if norms[0] == 0.0:
                if np.any(norms > 0.0):
                    raise NotExponentiallyStableError("trajectory leaves the origin")
                continue
            last = np.flatnonzero(norms[1:] > 0.0)[-1:] + 1  # the last positive norm after the start, if any
            if last.size and norms[last[0]] >= norms[0]:
                raise NotExponentiallyStableError(f"trajectory does not decay (|x({last[0]})| >= |x(0)|)")
        except NotExponentiallyStableError as exc:
            exc.row = i
            raise
        mask = norms > 0.0
        mask[0] = False
        ts = np.flatnonzero(mask).astype(float)
        logs = np.log(norms[mask] / norms[0])
        if ts.size >= 2:
            slope = np.polyfit(ts, logs, 1)[0]
            if slope < 0.0:
                rates.append(-slope)
            else:
                last = int(ts[-1])
                rates.append(-logs[-1] / last / 2.0)
        elif ts.size == 1 and logs[0] < 0.0:
            rates.append(-float(logs[0]) / float(ts[0]))
    rate = min(min(rates) if rates else LAMBDA_MAX, LAMBDA_MAX)
    log_k = 0.0
    radius = 0.0
    for _, norms in rows:
        if norms[0] == 0.0:
            continue
        radius = max(radius, norms[0])
        dts = np.arange(norms.size, dtype=float)
        positive = norms > 0.0
        ratios = np.log(norms[positive] / norms[0]) + rate * dts[positive]
        if ratios.size:
            log_k = max(log_k, float(ratios.max()))
    gain = float(np.exp(log_k))
    return ExponentialEnvelope(gain=max(gain, 1.0), rate=rate, validity_radius=radius if radius > 0 else None)


ROW_KINDS = ("decaying", "non-monotone", "zero", "tiny", "zero-tail", "growing", "rising-tail", "leaving", "non-finite")


@st.composite
def envelope_tables(draw):
    """A state table of mixed rows, and its start times (one or per row)."""
    size, steps, n = draw(st.integers(1, 6)), draw(st.integers(0, 9)), draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=size, max_size=size))
    rng = np.random.default_rng(draw(seeds))
    t = np.arange(steps + 1)
    table = np.empty((size, steps + 1, n))
    for i, kind in enumerate(kinds):
        directions = rng.standard_normal((steps + 1, n))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        scale = {"tiny": 10.0 ** rng.uniform(-320, -300)}.get(kind, rng.uniform(0.01, 10.0))
        ratio = rng.uniform(1.01, 2.0) if kind in ("growing", "rising-tail") else rng.uniform(0.05, 0.99)
        norms = scale * ratio**t
        if kind == "non-monotone":
            norms = norms * rng.uniform(0.3, 3.0, steps + 1)
        elif kind == "zero":
            norms[:] = 0.0
        elif kind == "zero-tail":
            norms[rng.integers(1, steps + 1) if steps else 1:] = 0.0
        elif kind == "rising-tail":  # rises, then reaches norm 0
            norms[rng.integers(2, steps + 1) if steps >= 2 else 1:] = 0.0
        elif kind == "leaving":
            norms[0] = 0.0
        table[i] = norms[:, None] * directions
        if kind == "non-finite":
            table[i, rng.integers(steps + 1), rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
    per_row = draw(st.booleans())
    t0 = np.array(draw(st.lists(st.integers(0, 9), min_size=size, max_size=size))) if per_row else draw(st.integers(0, 9))
    return table, t0


def fit_outcome(fit):
    try:
        env = fit()
    except (NotExponentiallyStableError, ValueError) as exc:
        return type(exc), str(exc)
    return env.gain.hex(), env.rate.hex(), None if env.validity_radius is None else env.validity_radius.hex()


class TestEnvelopeFitTable:
    @given(data=envelope_tables())
    @settings(max_examples=300, deadline=None)
    def test_fit_matches_the_per_trajectory_loop(self, data):
        table, t0 = data
        t0s = np.broadcast_to(t0, len(table)).tolist()
        want = fit_outcome(lambda: reference_fit(t0s, table))
        assert fit_outcome(lambda: fit_exponential_envelope(table, t0)) == want
        try:
            reference_fit(t0s, table)
        except NotExponentiallyStableError as exc:
            # the same row raises: the rows before it fit, or fail only on the rate
            starts, row = np.broadcast_to(t0, len(table)), exc.row
            assert fit_outcome(lambda: fit_exponential_envelope(table[: row + 1], starts[: row + 1])) == want
            if row:
                before = fit_outcome(lambda: fit_exponential_envelope(table[:row], starts[:row]))
                assert before[0] is not NotExponentiallyStableError
        except ValueError:
            pass
