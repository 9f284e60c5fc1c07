import math
from importlib import resources

import pytest

from uavlos.baselines import (
    GridProduct,
    Sigmoid,
    StepTable,
    evaluate,
    load_model_set,
)
from uavlos.citygeom import ENVIRONMENTS, BuiltUpParams
from uavlos.errors import EmptyTable, InvalidAngle, InvalidParams, ParseError
from uavlos.simgeom import MAX_TRACK_PERIODS

URBAN_GRID = GridProduct(ENVIRONMENTS["urban"])


def test_grid_product_frozen_values():
    # urban parameters, 100 m transmitter over a 1.5 m user
    cases = {
        10.0: 0.09604127701052821,
        20.0: 0.3325451987019457,
        30.0: 0.50833250498633,
        40.0: 0.780562910103613,
        50.0: 0.780562910103613,
        60.0: 0.996731657234963,
        90.0: 0.996731657234963,
    }
    for theta, expected in cases.items():
        assert evaluate(URBAN_GRID, theta, 100.0, 1.5) == pytest.approx(expected, rel=1e-12)


def test_grid_product_limits():
    assert evaluate(URBAN_GRID, 0.0, 100.0, 1.5) == 0.0
    # theta = 90 leaves a single building term below the transmitter
    h_mid = 100.0 - 0.5 * (100.0 - 1.5)
    expected = 1.0 - math.exp(-(h_mid**2) / (2.0 * 15.0**2))
    assert evaluate(URBAN_GRID, 90.0, 100.0, 1.5) == pytest.approx(expected, rel=1e-12)


def test_grid_product_refuses_the_tracks_the_geometry_engine_refuses():
    # One factor per building row: before the bound, theta 1e-4 took a
    # quarter of a second, 1e-9 would take hours and 5e-324, whose
    # tangent rounds to 0, divided by zero.
    edge = math.degrees(math.atan(98.5 / (MAX_TRACK_PERIODS * 1000.0 / math.sqrt(500.0))))
    assert 0.0 < evaluate(URBAN_GRID, edge * (1.0 + 1e-9), 100.0, 1.5) < 1e-100
    for theta in (edge * (1.0 - 1e-9), 1e-9, 5e-324):
        with pytest.raises(InvalidAngle, match="periods"):
            evaluate(URBAN_GRID, theta, 100.0, 1.5)


def test_grid_product_refuses_a_gamma_whose_divisor_underflows():
    # Each factor divides by 2*gamma*gamma, which is 0 in floating point
    # at gamma 1e-162; at 1e-161 it is 2e-322, and every factor is 1.
    with pytest.raises(InvalidParams, match="2\\*gamma\\^2"):
        GridProduct(BuiltUpParams(0.3, 500.0, 1e-162))
    assert evaluate(GridProduct(BuiltUpParams(0.3, 500.0, 1e-161)), 45.0, 100.0, 1.5) == 1.0
    with pytest.raises(ParseError, match="line 2: .*2\\*gamma\\^2"):
        load_model_set("# tiny\ng gridproduct alpha=0.3 beta=500 gamma=1e-300\n")


def test_grid_product_is_monotone_in_theta():
    prev = -1.0
    for i in range(0, 901):
        value = evaluate(URBAN_GRID, i / 10.0, 100.0, 1.5)
        assert value >= prev - 1e-15
        prev = value


def test_grid_product_is_monotone_in_gamma():
    prev = 2.0
    for gamma in (5.0, 10.0, 20.0, 40.0, 80.0):
        model = GridProduct(BuiltUpParams(0.3, 500.0, gamma))
        value = evaluate(model, 45.0, 100.0, 1.5)
        assert value <= prev
        prev = value


def test_grid_product_height_validation():
    with pytest.raises(InvalidParams):
        evaluate(URBAN_GRID, 45.0, 1.0, 1.5)
    with pytest.raises(InvalidParams):
        evaluate(URBAN_GRID, 45.0, 100.0, -0.1)


def test_sigmoid_examples():
    model = Sigmoid(a=9.61, b=0.16)
    assert evaluate(model, 9.61, 0.0, 0.0) == pytest.approx(1.0 / (1.0 + 9.61), rel=1e-12)
    assert evaluate(model, 90.0, 0.0, 0.0) == pytest.approx(
        1.0 / (1.0 + 9.61 * math.exp(-0.16 * (90.0 - 9.61))), rel=1e-12
    )
    values = [evaluate(model, t, 0.0, 0.0) for t in range(0, 91)]
    assert values == sorted(values)
    with pytest.raises(InvalidParams):
        Sigmoid(a=-1.0, b=0.16)
    with pytest.raises(InvalidParams):
        Sigmoid(a=9.61, b=0.0)


def test_step_table_lookup():
    table = StepTable(((0.0, 30.0, 0.2), (30.0, 60.0, 0.5), (60.0, 90.0, 0.9)))
    assert evaluate(table, 0.0, 0.0, 0.0) == 0.2
    assert evaluate(table, 29.999, 0.0, 0.0) == 0.2
    assert evaluate(table, 30.0, 0.0, 0.0) == 0.5
    assert evaluate(table, 90.0, 0.0, 0.0) == 0.9  # last bin closes at 90


def test_step_table_validation():
    with pytest.raises(EmptyTable):
        StepTable(())
    with pytest.raises(InvalidParams):
        StepTable(((10.0, 90.0, 0.5),))  # must start at 0
    with pytest.raises(InvalidParams):
        StepTable(((0.0, 40.0, 0.5), (50.0, 90.0, 0.9)))  # gap
    with pytest.raises(InvalidParams):
        StepTable(((0.0, 80.0, 0.5),))  # must end at 90
    with pytest.raises(InvalidParams):
        StepTable(((0.0, 90.0, 1.5),))  # probability range


def test_theta_domain():
    with pytest.raises(InvalidAngle):
        evaluate(URBAN_GRID, -1.0, 100.0, 1.5)
    with pytest.raises(InvalidAngle):
        evaluate(Sigmoid(1.0, 1.0), 90.5, 0.0, 0.0)


def test_load_model_set_round_trip():
    text = """
# comment line
fitted   sigmoid      a=9.61 b=0.16
grid_a   gridproduct  alpha=0.5 beta=300 gamma=20   # trailing comment
steps    steptable    rows=0:45:0.3,45:90:0.8
"""
    models = load_model_set(text)
    assert set(models) == {"fitted", "grid_a", "steps"}
    assert models["fitted"] == Sigmoid(a=9.61, b=0.16)
    assert models["grid_a"] == GridProduct(BuiltUpParams(0.5, 300.0, 20.0))
    assert evaluate(models["steps"], 50.0, 0.0, 0.0) == 0.8


def test_load_model_set_empty_document():
    assert load_model_set("") == {}
    assert load_model_set("# only comments\n\n") == {}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("just_a_name\n", "line 1"),
        ("m unknownfamily a=1\n", "family"),
        ("m sigmoid a=1\n", "expected keys"),
        ("m sigmoid a=1 b=x\n", "not a number"),
        ("m sigmoid a=1 b=2\nm sigmoid a=2 b=3\n", "duplicate"),
        ("m steptable rows=0:45:0.3\n", "90"),
        ("m steptable rows=0:45\n", "lo:hi:p"),
        ("m sigmoid a=-4 b=2\n", "positive"),
    ],
)
def test_load_model_set_diagnostics(text, fragment):
    with pytest.raises(ParseError) as err:
        load_model_set(text)
    assert fragment in str(err.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        load_model_set("ok sigmoid a=1 b=1\nbad sigmoid a=1\n")
    assert str(err.value).startswith("line 2:")


def test_shipped_example_file_loads():
    text = resources.files("uavlos").joinpath("data/example_models.txt").read_text()
    models = load_model_set(text)
    assert "urban_sigmoid" in models and "coarse_steps" in models
    for model in models.values():
        value = evaluate(model, 45.0, 100.0, 1.5)
        assert 0.0 <= value <= 1.0
