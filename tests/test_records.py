"""The package's record classes: frozen, compared by their fields or by
identity, printed as ``Name(field=value, ...)``, rebuilt and checked again
by ``replace``, copied and pickled whole.

Every record is built by :func:`uavlos._record.record`.  The repr strings
below were printed by the same classes when they were frozen dataclasses;
demo output prints records, so the format must not drift.
"""

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uavlos
from uavlos import (
    Building,
    BuildingTop,
    BuiltUpParams,
    Cities,
    CityLayout,
    CompareRow,
    Crossroad,
    CrossroadCenter,
    FixedPoint,
    GeomScenario,
    GridProduct,
    LinkGeometry,
    Node,
    PLosEstimate,
    PLosEstimates,
    RandomOverCity,
    Sigmoid,
    StepTable,
    Street,
    StreetCenter,
    SweepAxis,
    SweepResult,
    SweepSpec,
)
from uavlos._record import record, replace
from uavlos.errors import IllegalSpec, InvalidCounts, InvalidParams
from uavlos.harness import SweepRow, _with_swept_params
from uavlos.sim3d import Blocker, LoSOutcome

ROOT = Path(__file__).resolve().parent.parent

PARAMS = BuiltUpParams(alpha=0.3, beta=500, gamma=15)
LAYOUT = CityLayout(w=20.0, s=25.0, period=45.0, extent_x=90.0, extent_y=45.0)
EST = PLosEstimate(n=10, k=3, p_hat=0.3, ci_lo=0.1, ci_hi=0.6)
AXIS = SweepAxis("theta", (10.0, 20.0))
SPEC = SweepSpec("geom", PARAMS, axes=(AXIS,), n_runs=10)

_P = "BuiltUpParams(alpha=0.3, beta=500, gamma=15)"
_L = "CityLayout(w=20.0, s=25.0, period=45.0, extent_x=90.0, extent_y=45.0)"
_E = "PLosEstimate(n=10, k=3, p_hat=0.3, ci_lo=0.1, ci_hi=0.6)"
_S = (
    f"SweepSpec(engine='geom', params={_P}, extent=(3000.0, 3000.0), "
    "axes=(SweepAxis(name='theta', values=(10.0, 20.0)),), theta=None, phi=None, "
    "radius=None, h_uav=100.0, h_rx=1.5, n_runs=10, seed=0, user_zone='mixed', "
    "uav_policy='random', n_users=360, models=None)"
)

#: A builder of each record compared by its fields, with the repr the
#: frozen dataclass printed for it.
BY_VALUE = [
    (lambda: BuiltUpParams(alpha=0.3, beta=500, gamma=15), _P),
    (lambda: CityLayout(w=20.0, s=25.0, period=45.0, extent_x=90.0, extent_y=45.0), _L),
    (lambda: Node(1.0, 2.0, 3.5), "Node(x=1.0, y=2.0, z=3.5)"),
    (
        lambda: LinkGeometry(Node(0.0, 0.0, 10.0), Node(3.0, 4.0, 0.0), 5.0, 63.5, 233.0),
        "LinkGeometry(tx=Node(x=0.0, y=0.0, z=10.0), rx=Node(x=3.0, y=4.0, z=0.0), "
        "r_rx=5.0, theta_deg=63.5, phi_deg=233.0)",
    ),
    (lambda: Building(2, 3), "Building(ix=2, iy=3)"),
    (lambda: Street(), "Street()"),
    (lambda: Crossroad(), "Crossroad()"),
    (lambda: FixedPoint(Node(1.0, 2.0, 100.0)), "FixedPoint(node=Node(x=1.0, y=2.0, z=100.0))"),
    (lambda: RandomOverCity(100.0), "RandomOverCity(h=100.0)"),
    (lambda: BuildingTop(5.0), "BuildingTop(h=5.0)"),
    (lambda: CrossroadCenter(50.0), "CrossroadCenter(h=50.0)"),
    (lambda: StreetCenter(60.0), "StreetCenter(h=60.0)"),
    (
        lambda: GeomScenario(PARAMS, "street", 45.0),
        f"GeomScenario(params={_P}, user_zone='street', theta_deg=45.0, "
        "phi_deg=(0.0, 90.0), h_uav=(0.0, 500.0), h_rx=1.5)",
    ),
    (lambda: GridProduct(PARAMS), f"GridProduct(params={_P})"),
    (lambda: Sigmoid(9.61, 0.16), "Sigmoid(a=9.61, b=0.16)"),
    (
        lambda: StepTable(((0.0, 45.0, 0.25), (45.0, 90.0, 1.0))),
        "StepTable(rows=((0.0, 45.0, 0.25), (45.0, 90.0, 1.0)))",
    ),
    (lambda: SweepAxis("theta", (10.0, 20.0)), "SweepAxis(name='theta', values=(10.0, 20.0))"),
    (lambda: SweepSpec("geom", PARAMS, axes=(AXIS,), n_runs=10), _S),
    (lambda: PLosEstimate(n=10, k=3, p_hat=0.3, ci_lo=0.1, ci_hi=0.6), _E),
    (
        lambda: CompareRow(30.0, EST, EST, 0.0, {"grid": 0.5}),
        f"CompareRow(theta_deg=30.0, sim3d={_E}, geom={_E}, abs_delta=0.0, "
        "baselines={'grid': 0.5})",
    ),
    (lambda: Blocker(1, 2, 3.25), "Blocker(ix=1, iy=2, r_op=3.25)"),
    (lambda: LoSOutcome(True), "LoSOutcome(is_los=True, blocker=None)"),
    (
        lambda: LoSOutcome(False, Blocker(1, 2, 3.25)),
        "LoSOutcome(is_los=False, blocker=Blocker(ix=1, iy=2, r_op=3.25))",
    ),
    (lambda: SweepRow((30.0,), EST, 1.5), f"SweepRow(values=(30.0,), estimate={_E}, ms=1.5)"),
]


def _estimates():
    return PLosEstimates(
        np.array([10, 10]), np.array([3, 4]), np.array([0.3, 0.4]),
        np.array([0.1, 0.2]), np.array([0.5, 0.6]),
    )


_ESTIMATES = (
    "PLosEstimates(n=array([10, 10]), k=array([3, 4]), p_hat=array([0.3, 0.4]), "
    "ci_lo=array([0.1, 0.2]), ci_hi=array([0.5, 0.6]))"
)

#: The same for the records compared by identity: their fields hold arrays.
BY_IDENTITY = [
    (
        lambda: Cities(PARAMS, LAYOUT, np.array([7], dtype=np.uint64),
                       np.array([[[12.5], [20.0]]])),
        f"Cities(params={_P}, layout={_L}, keys=array([7], dtype=uint64), "
        "heights=array([[[12.5],\n        [20. ]]]))",
    ),
    (
        lambda: Cities(PARAMS, LAYOUT, np.array([7, 8], dtype=np.uint64)),
        f"Cities(params={_P}, layout={_L}, keys=array([7, 8], dtype=uint64), heights=None)",
    ),
    (_estimates, _ESTIMATES),
    (
        lambda: SweepResult(SPEC, ("theta",), _estimates(), np.array([1.5, 2.0])),
        f"SweepResult(spec={_S}, axis_names=('theta',), estimates={_ESTIMATES}, "
        "ms=array([1.5, 2. ]))",
    ),
]

ALL = BY_VALUE + BY_IDENTITY


def _ids(cases):
    return [make().__class__.__name__ + str(i) for i, (make, _) in enumerate(cases)]


def test_every_exported_class_but_the_errors_is_a_covered_record():
    exported = {
        obj for obj in (getattr(uavlos, name) for name in uavlos.__all__)
        if isinstance(obj, type) and not issubclass(obj, BaseException)
    }
    assert exported <= {type(make()) for make, _ in ALL}


@pytest.mark.parametrize("make, text", ALL, ids=_ids(ALL))
def test_repr_keeps_the_dataclass_format(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", ALL, ids=_ids(ALL))
def test_fields_cannot_be_set_or_deleted(make, text):
    obj = make()
    for name in list(vars(obj)) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == text


@pytest.mark.parametrize("make, text", BY_VALUE, ids=_ids(BY_VALUE))
def test_value_records_compare_and_hash_by_fields(make, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if not isinstance(a, CompareRow):  # its baselines are a dict
        assert hash(a) == hash(b) == hash(tuple(vars(a).values()))
    assert a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("make, text", BY_IDENTITY, ids=_ids(BY_IDENTITY))
def test_identity_records_compare_and_hash_by_identity(make, text):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


def test_a_record_never_equals_one_of_another_class_with_the_same_values():
    assert Street() != Crossroad()
    assert len({RandomOverCity(5.0), BuildingTop(5.0), CrossroadCenter(5.0), StreetCenter(5.0)}) == 4
    assert Node(1.0, 2.0, 3.0) != (1.0, 2.0, 3.0)
    assert BuiltUpParams(0.3, 500.0, 15.0) != BuiltUpParams(0.3, 500.0, 16.0)


def test_fields_compare_as_a_tuple():
    nan = float("nan")
    a = Node(nan, 0.0, 0.0)
    assert a == a == replace(a)  # the tuple's identity shortcut
    assert a != Node(float("nan"), 0.0, 0.0)
    assert Node(1, 2, 3) == Node(1.0, 2.0, 3.0) and hash(Node(1, 2, 3)) == hash(Node(1.0, 2.0, 3.0))


def test_defaults_apply_and_bad_arguments_raise_type_error():
    assert SweepSpec("geom", PARAMS, axes=(AXIS,)).models is None
    assert SweepSpec("geom", PARAMS, axes=(AXIS,)).n_runs == 1000
    assert GeomScenario(PARAMS, "street", 45.0).h_rx == 1.5
    assert LoSOutcome(True).blocker is None
    assert Cities(PARAMS, LAYOUT, np.array([7], dtype=np.uint64)).heights is None
    assert Node(1.0, y=2.0, z=3.0) == Node(z=3.0, x=1.0, y=2.0)
    with pytest.raises(TypeError, match="missing"):
        BuiltUpParams(0.3, 500.0)
    with pytest.raises(TypeError, match="unexpected"):
        BuiltUpParams(0.3, 500.0, 15.0, delta=1.0)
    with pytest.raises(TypeError, match="two values"):
        BuiltUpParams(0.3, 500.0, 15.0, alpha=0.2)
    with pytest.raises(TypeError, match="takes 3 arguments"):
        BuiltUpParams(0.3, 500.0, 15.0, 1.0)
    with pytest.raises(TypeError):
        Street(1)


def test_post_init_runs_on_construction_and_on_replace():
    with pytest.raises(InvalidParams):
        BuiltUpParams(1.5, 500.0, 15.0)
    with pytest.raises(InvalidCounts):
        PLosEstimate(n=10, k=11, p_hat=0.3, ci_lo=0.1, ci_hi=0.6)
    with pytest.raises(IllegalSpec):
        SweepSpec("geom", PARAMS)
    with pytest.raises(InvalidParams):
        replace(PARAMS, alpha=1.5)
    with pytest.raises(InvalidParams):
        _with_swept_params(PARAMS, {"alpha": 1.5, "theta": 30.0})
    assert _with_swept_params(PARAMS, {"gamma": 20.0}) == BuiltUpParams(0.3, 500, 20.0)
    assert _with_swept_params(PARAMS, {"theta": 30.0}) is PARAMS
    with pytest.raises(TypeError):
        replace(PARAMS, delta=1.0)


@pytest.mark.parametrize("make, text", ALL, ids=_ids(ALL))
def test_copy_and_pickle_rebuild_an_equal_record(make, text):
    obj = make()
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is type(obj) and repr(clone) == text
        if (make, text) in BY_VALUE:
            assert clone == obj


def test_record_refuses_a_base_class():
    # It would take only the subclass's own annotations as fields.
    with pytest.raises(TypeError):
        @record
        class Derived(Node):
            w: float


def test_no_record_is_a_dataclass_and_the_cli_import_leaves_dataclasses_out():
    # Building a dataclass generates and compiles its methods in every
    # process; a fresh child shows whether importing the CLI pays that.
    modules = [importlib.import_module(f"uavlos.{m.name}") for m in pkgutil.iter_modules(uavlos.__path__)]
    classes = [obj for m in modules for obj in vars(m).values() if isinstance(obj, type)]
    assert [c for c in classes if hasattr(c, "__dataclass_fields__")] == []
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import sys, uavlos.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
