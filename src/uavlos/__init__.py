"""Monte-Carlo estimation of UAV-to-ground line-of-sight probability.

Two independent engines estimate P_LoS in ITU-parameterized Manhattan
cities: :mod:`uavlos.sim3d` decides every link of a whole city, whose
roofs are a hash of its key, while :mod:`uavlos.simgeom` draws only the
buildings a link's ground track enters.  Both find those buildings with one
ground-track kernel, :func:`uavlos.citygeom.track_entries`.
:mod:`uavlos.baselines` holds closed-form reference models, and
:mod:`uavlos.harness` runs seeded sweeps with Wilson confidence
intervals and CSV output.
"""

from .baselines import GridProduct, Sigmoid, StepTable, evaluate, load_model_set
from .citygeom import (
    ENVIRONMENTS,
    GHENT,
    Building,
    BuiltUpParams,
    CityLayout,
    Crossroad,
    LinkGeometry,
    Node,
    Street,
    classify_point,
    derive_layout,
    roof_heights,
    track_entries,
    uav_position_from_angles,
)
from .errors import (
    IllegalSpec,
    InvalidAngle,
    InvalidParams,
    ParseError,
    UavLosError,
)
from .harness import (
    CompareRow,
    SweepAxis,
    SweepResult,
    SweepSpec,
    compare_engines,
    result_to_csv,
    run_sweep,
    write_csv,
)
from .sim3d import (
    BuildingTop,
    Cities,
    CrossroadCenter,
    FixedPoint,
    RandomOverCity,
    StreetCenter,
    check_los_dense,
    check_los_edges,
    generate_city,
    load_city,
    place_uav,
    save_city,
)
from .simgeom import GeomScenario, estimate_plos
from .stats import PLosEstimate, PLosEstimates, wilson_interval

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # parameters and geometry
    "BuiltUpParams",
    "CityLayout",
    "ENVIRONMENTS",
    "GHENT",
    "Node",
    "LinkGeometry",
    "Building",
    "Street",
    "Crossroad",
    "derive_layout",
    "classify_point",
    "roof_heights",
    "track_entries",
    "uav_position_from_angles",
    # 3D engine
    "Cities",
    "generate_city",
    "check_los_edges",
    "check_los_dense",
    "place_uav",
    "FixedPoint",
    "RandomOverCity",
    "BuildingTop",
    "CrossroadCenter",
    "StreetCenter",
    "save_city",
    "load_city",
    # geometry engine
    "GeomScenario",
    "estimate_plos",
    # baselines
    "GridProduct",
    "Sigmoid",
    "StepTable",
    "evaluate",
    "load_model_set",
    # harness and statistics
    "SweepAxis",
    "SweepSpec",
    "SweepResult",
    "CompareRow",
    "run_sweep",
    "compare_engines",
    "result_to_csv",
    "write_csv",
    "PLosEstimate",
    "PLosEstimates",
    "wilson_interval",
    # errors
    "UavLosError",
    "InvalidParams",
    "InvalidAngle",
    "IllegalSpec",
    "ParseError",
]
