"""The program cache: generated programs stored on disk and loaded by later set-ups.

Every test that reads or writes the cache starts from an empty cache of its own
(``empty_program_cache``) and builds its scenarios and fields anew, so no
program is held in the process from an earlier test.
"""

import inspect

import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose

from flowtensor import scenarios, tensor_calculus
from flowtensor.fields import (linear_vector_field, random_tensor_field, rotation_field_2d,
                              tensor_field, vector_field)
from flowtensor.flow import FlowSDE
from flowtensor.geometry import euclidean_atlas
from flowtensor.kiw_verifier import convergence_study, validate_scenario
from flowtensor.scenarios import list_scenarios
from flowtensor.tensor_calculus import InsufficientSmoothness, coord_symbols

X0, X1 = coord_symbols(2)


def _validates(name) -> bool:
    try:
        validate_scenario(scenarios._BUILDERS[name]())
    except Exception:
        return False
    return True


def _study(name, **kw) -> str:
    """The repr of a small study of a freshly built scenario, which holds no program yet."""
    return repr(convergence_study(scenarios._BUILDERS[name](), **kw))


def _entries(cache_dir):
    return sorted(p.name for p in cache_dir.glob("*.py")) if cache_dir.is_dir() else []


def _sympy_work(monkeypatch):
    """Count the calls of ``sp.diff``, ``sp.cse`` and the source printer from now on.

    The memoised partials are dropped first, so a set-up that needs a
    partial differentiates it again.
    """
    tensor_calculus._partial.cache_clear()
    tensor_calculus._diff_form.cache_clear()
    calls = []
    for owner, name in ((sp, "diff"), (sp, "cse"), (tensor_calculus, "_compiled")):
        original = getattr(owner, name)

        def counted(*a, _original=original, _name=name, **k):
            calls.append(_name)
            return _original(*a, **k)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name", [n for n in list_scenarios() if _validates(n)])
def test_report_is_the_same_from_a_cold_a_warm_and_an_unwritable_cache(
        name, empty_program_cache, tmp_path, monkeypatch):
    cold = _study(name, levels=2, n_paths=5)
    stored = _entries(empty_program_cache)
    assert stored
    assert empty_program_cache.stat().st_mode & 0o077 == 0
    assert not list(empty_program_cache.glob("*.tmp"))
    assert _study(name, levels=2, n_paths=5) == cold
    assert _entries(empty_program_cache) == stored
    # XDG_CACHE_HOME a regular file: nothing can be read or written there
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    assert _study(name, levels=2, n_paths=5) == cold


@pytest.mark.parametrize("name", ["kiw_ito_pullback_r2", "kunita_sphere_rotation"])
def test_warm_setup_derives_and_prints_nothing(name, empty_program_cache, monkeypatch):
    cold = _study(name, levels=1, n_paths=4)
    calls = _sympy_work(monkeypatch)
    assert _study(name, levels=1, n_paths=4) == cold
    assert calls == []


def test_a_cold_setup_derives_and_prints(empty_program_cache, monkeypatch):
    """The counting of the warm test sees the work where there is some."""
    calls = _sympy_work(monkeypatch)
    _study("kiw_ito_pullback_r2", levels=1, n_paths=4)
    assert {"diff", "cse", "_compiled"} <= set(calls)


def _jets(f, pts):
    return f._jet_last(0.3, pts.T, 0, 2)


@pytest.mark.parametrize("damage", ["truncated", "cut at a line", "empty", "other code",
                                    "another program's entry"])
def test_a_damaged_entry_is_rebuilt_and_overwritten(damage, empty_program_cache):
    pts = np.random.default_rng(2).uniform(-1.0, 1.0, (7, 2))

    def field(e):
        return tensor_field((0, 0), 2, e, name="f")

    want = _jets(field(X0**2 * X1 + sp.sin(X1)), pts)
    (entry,) = empty_program_cache.glob("*.py")
    whole = entry.read_text()
    if damage == "another program's entry":
        _jets(field(X0**3), pts)
        (other,) = set(empty_program_cache.glob("*.py")) - {entry}
        damaged = other.read_text()
    else:
        damaged = {
            "truncated": whole[: len(whole) // 2],
            # still a valid function definition, without its return line
            "cut at a line": whole[: whole.rindex("\n", 0, len(whole) - 1) + 1],
            "empty": "",
            "other code": "def _lambdifygenerated(*args):\n    return [0.0]\n",
        }[damage]
    entry.write_text(damaged)
    got = _jets(field(X0**2 * X1 + sp.sin(X1)), pts)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert entry.read_text() == whole


def test_key_holds_components_and_parameter_names_not_values_or_names(empty_program_cache):
    a, b = sp.symbols("a b", real=True)
    pts = np.array([[0.5, -1.5], [2.0, 0.25]])

    def evaluate(expr, params, name):
        return tensor_field((0, 0), 2, expr, params=params, name=name)._jet_last(0.0, pts.T, 0,
                                                                                 0)[0]

    assert_allclose(evaluate(a * X0**2 + X1, {a: 1.0}, "f"), [-1.25, 4.25])
    first = _entries(empty_program_cache)
    assert len(first) == 1
    # another parameter value and another field name: the same program
    assert_allclose(evaluate(a * X0**2 + X1, {a: 3.0}, "g"), [-0.75, 12.25])
    assert _entries(empty_program_cache) == first
    # another component, another parameter name: a program each
    evaluate(a * X0**3 + X1, {a: 1.0}, "f")
    assert len(_entries(empty_program_cache)) == 2
    evaluate(b * X0**2 + X1, {b: 1.0}, "f")
    assert len(_entries(empty_program_cache)) == 3
    # a parameter the components do not read is still an argument
    assert_allclose(evaluate(a * X0**2 + X1, {a: 1.0, b: 5.0}, "f"), [-1.25, 4.25])
    assert len(_entries(empty_program_cache)) == 4


def test_flow_programs_are_keyed_by_components_and_parameter_names(empty_program_cache):
    def sde(rate, noise):
        return FlowSDE(rotation_field_2d(rate), (noise,), euclidean_atlas(2))

    pts = np.array([[0.5, -1.0], [0.25, 2.0]])
    noise = vector_field(2, [X1, sp.Integer(1)], name="n")
    slow = sde(1.0, noise)
    slow.jets(0.0, pts, 0, 2)
    slow._step_program(0, "heun", False)
    first = _entries(empty_program_cache)
    assert len(first) == 2
    fast = sde(2.0, vector_field(2, [X1, sp.Integer(1)], name="other"))
    assert_allclose(fast.jets(0.0, pts, 0, 2)["b"], 2.0 * np.array([[-0.25, -2.0], [0.5, -1.0]]))
    fast._step_program(0, "heun", False)
    assert _entries(empty_program_cache) == first
    sde(1.0, vector_field(2, [X1, sp.Integer(2)], name="n")).jets(0.0, pts, 0, 2)
    assert len(_entries(empty_program_cache)) == 3
    # the same components with a parameter they do not read: another signature
    c = sp.Symbol("c", real=True)
    noise_c = vector_field(2, [X1, sp.Integer(1)], params={c: 1.0}, name="n")
    assert_allclose(sde(1.0, noise_c).jets(0.0, pts, 0, 2)["xi"][0], [[0.25, 2.0], [1.0, 1.0]])
    assert len(_entries(empty_program_cache)) == 4


def test_checks_raise_with_a_warm_cache(empty_program_cache):
    f = tensor_field((0, 0), 2, X0**2 * X1, smoothness_order=2, name="f")
    pts = np.zeros((1, 2))
    f._jet_last(0.0, pts.T, 0, 2)
    f.eval(0.0, pts[0], 0)
    noise = vector_field(2, [X1, X0], smoothness_order=2, name="n")
    sde = FlowSDE(rotation_field_2d(), (noise,), euclidean_atlas(2))
    sde._step_program(0, "euler_maruyama", True)
    sde.jets(0.0, pts.T, 0, 2)
    assert _entries(empty_program_cache)

    rough = f.with_order(1)
    with pytest.raises(InsufficientSmoothness):
        rough._jet_last(0.0, pts.T, 0, 2)
    with pytest.raises(KeyError):
        tensor_field((0, 0), 2, X0**2 * X1, smoothness_order=2, name="f").eval(0.0, pts[0], 7)
    rough_sde = FlowSDE(rotation_field_2d(), (noise.with_order(1),), euclidean_atlas(2))
    with pytest.raises(InsufficientSmoothness):
        rough_sde._step_program(0, "euler_maruyama", True)
    with pytest.raises(InsufficientSmoothness):
        rough_sde.jets(0.0, pts.T, 0, 2)
    fresh = FlowSDE(rotation_field_2d(), (noise,), euclidean_atlas(2))
    with pytest.raises(ValueError, match="unknown scheme"):
        fresh._step_program(0, "rk4", True)
    with pytest.raises(KeyError):
        fresh.jets(0.0, pts.T, 3, 1)


def test_a_second_random_draw_compiles_nothing(empty_program_cache, monkeypatch):
    """Draws from one template share its program: only parameter values differ."""
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, (6, 2))
    first = random_tensor_field((0, 1), 2, rng, kind="trig")
    first._jet_last(0.0, pts.T, 0, 2)
    calls = _sympy_work(monkeypatch)
    second = random_tensor_field((0, 1), 2, rng, kind="trig")
    got = second._jet_last(0.0, pts.T, 0, 2)
    assert calls == []
    comps = second.comps[0]
    for i in range(2):
        want = sp.lambdify(coord_symbols(2) + tuple(s for s, _ in second.params), comps[i],
                           modules=np)(*pts.T, *(v for _, v in second.params))
        assert_allclose(got[0][i], want, rtol=1e-13)


def test_printed_source_is_lambdify_source():
    """The printer writes what ``sp.lambdify(..., modules=np)`` would run."""
    f = scenarios._BUILDERS["kunita_sphere_rotation"]().K0
    alphas = ((0, 0), (1, 0), (0, 2))
    exprs = f._exprs(1, alphas)
    args = (tensor_calculus.TIME,) + coord_symbols(2)
    want = inspect.getsource(sp.lambdify(args, list(exprs), modules=np))
    assert tensor_calculus._compiled(exprs, args) == want


def test_float_coefficients_print_at_round_trip_precision():
    """A field's float constants reach its program unrounded: sympy writes a
    ``Float`` with 15 significant digits, so ``1/3`` would become
    0.333333333333333 and ``0.1 + 0.2`` would become 0.3."""
    third = linear_vector_field([[1.0 / 3.0]], name="third")
    assert third.eval(0.0, np.array([1.0])).components[0] == 1.0 / 3.0
    shifted = vector_field(1, [sp.Float(0.1 + 0.2)], name="shifted")
    assert shifted.eval(0.0, np.array([0.0])).components[0] == 0.1 + 0.2
    x = sp.Float(0.1 + 0.2) * coord_symbols(1)[0]
    assert "0.30000000000000004*x0" in tensor_calculus._compiled((x,), coord_symbols(1))
