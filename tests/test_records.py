"""What a caller sees of each record type: its repr, equality and hashing,
which records are immutable, and each construction check's error, with its
message and order, through every constructor path the package uses."""

import math
import sys

import pytest
from conftest import make_annotation_dict

from aerial3d.agent.planning import Plan, ToolCall, plan_from_steps
from aerial3d.agent.runtime import AgentConfig, ExecutionResult, StepRecord
from aerial3d.boxes import Box3D, HorizontalBox2D, OrientedBox2D, parse_location
from aerial3d.camera import CameraModel, CameraPoint
from aerial3d.errors import DegenerateBox, ParseError, PlanParseError, SchemaError
from aerial3d.evaluation import AnnotatedObject, AnnotationFile, annotation_from_dict
from aerial3d.instructions import BuildResult, InstructionSample, TemplateSet
from aerial3d.synth import SceneConfig
from aerial3d.vehicles import VehicleRecord, VehicleTable, load_table


def _obb():
    return OrientedBox2D(540.0, 440.0, 90.0, 36.0, -0.5)


def _cam(**kw):
    fields = dict(focal_length=0.01, pixel_size=1e-05, image_width=1000, image_height=800,
                  pitch=1.0, agl=50.0)
    fields.update(kw)
    return CameraModel(**fields)


def _vehicle(**kw):
    fields = dict(brand="BYD", model="Tang", length_mm=4870.0, width_mm=1950.0,
                  height_mm=1725.0, powertrain="PHEV", price=239800.0, doors=5, seats=7)
    fields.update(kw)
    return VehicleRecord(**fields)


def _step():
    return StepRecord(0, "query_table", "record", {"mode": "match"})


_OBB_REPR = "OrientedBox2D(cx=540.0, cy=440.0, width=90.0, height=36.0, angle=-0.5)"
_CAM_REPR = ("CameraModel(focal_length=0.01, pixel_size=1e-05, image_width=1000, "
             "image_height=800, pitch=1.0, agl=50.0)")
_VEHICLE_REPR = ("VehicleRecord(brand='BYD', model='Tang', length_mm=4870.0, width_mm=1950.0, "
                 "height_mm=1725.0, powertrain='PHEV', price=239800.0, doors=5, seats=7)")
_STEP_REPR = ("StepRecord(index=0, tool='query_table', output_name='record', "
              "args={'mode': 'match'}, output=None, error=None, backend_calls=[])")

# Each record type: a builder of one instance, the instance's repr, and
# whether it hashes (a record holding a dict or list does not).
RECORDS = {
    "OrientedBox2D": (_obb, _OBB_REPR, True),
    "HorizontalBox2D": (
        lambda: HorizontalBox2D(0.0, 1.0, 2.0, 3.0),
        "HorizontalBox2D(x1=0.0, y1=1.0, x2=2.0, y2=3.0)",
        True,
    ),
    "Box3D": (
        lambda: Box3D(CameraPoint(0.0, 1.0, 10.0), 4.5, 1.8, 1.5, 0.25),
        "Box3D(center=CameraPoint(x=0.0, y=1.0, z=10.0), length=4.5, width=1.8, "
        "height=1.5, yaw=0.25)",
        True,
    ),
    "CameraModel": (_cam, _CAM_REPR, True),
    "VehicleRecord": (_vehicle, _VEHICLE_REPR, True),
    "SceneConfig": (
        lambda: SceneConfig(3),
        "SceneConfig(n_vehicles=3, pitch_range=(1.5707963267948966, 1.5707963267948966), "
        "agl_range=(50.0, 50.0), seed=0, image_width=1000, image_height=1000, "
        "ground_extent=None)",
        True,
    ),
    "ToolCall": (
        lambda: ToolCall("query_table", {"mode": "match"}, "record"),
        "ToolCall(tool='query_table', args={'mode': 'match'}, output_name='record')",
        False,
    ),
    "Plan": (
        lambda: Plan((ToolCall("summarize", {}, "answer"),)),
        "Plan(steps=(ToolCall(tool='summarize', args={}, output_name='answer'),))",
        False,
    ),
    "AnnotatedObject": (
        lambda: AnnotatedObject("car0", _obb(), (4500, 1800, 1500), {"color": "white"}),
        f"AnnotatedObject(id='car0', obb={_OBB_REPR}, dims_mm=(4500, 1800, 1500), "
        "attributes={'color': 'white'})",
        False,
    ),
    "AnnotationFile": (
        lambda: AnnotationFile(
            "scene.png", 1000, 800, _cam(),
            (AnnotatedObject("car0", _obb(), (4500, 1800, 1500), {}),),
        ),
        "AnnotationFile(image='scene.png', image_width=1000, image_height=800, "
        f"camera={_CAM_REPR}, objects=(AnnotatedObject(id='car0', obb={_OBB_REPR}, "
        "dims_mm=(4500, 1800, 1500), attributes={}),))",
        False,
    ),
    "BuildResult": (
        lambda: BuildResult(
            (InstructionSample(None, "q", None, "t", "sqa", "depth"),), 1, ("car1",)
        ),
        "BuildResult(samples=(InstructionSample(image=None, query='q', aux=None, target='t', "
        "kind='sqa', task='depth'),), n_skipped=1, skipped=('car1',))",
        True,
    ),
    "TemplateSet": (
        lambda: TemplateSet(
            {"hbb": ("Find {target}.",)}, {"depth": "How far is {target}?"}, {"gml": ("{loc3d}",)}
        ),
        "TemplateSet(grounding={'hbb': ('Find {target}.',)}, "
        "sqa={'depth': 'How far is {target}?'}, phase2={'gml': ('{loc3d}',)})",
        False,
    ),
    "ExecutionResult": (
        lambda: ExecutionResult({"record": {"seats": 7}}, [_step()]),
        f"ExecutionResult(outputs={{'record': {{'seats': 7}}}}, steps=[{_STEP_REPR}])",
        False,
    ),
    "StepRecord": (_step, _STEP_REPR, False),
    "AgentConfig": (
        lambda: AgentConfig("planner", "vlm", "summarizer"),
        "AgentConfig(planner='planner', vlm='vlm', summarizer='summarizer', search=None, "
        "table=None)",
        False,
    ),
    "VehicleTable": (
        lambda: VehicleTable((_vehicle(),)), f"VehicleTable(records=({_VEHICLE_REPR},))", True
    ),
}
# The executor fills in a step as it runs, and a session's backends may be
# swapped; every other record but ExecutionResult is immutable.
MUTABLE = ("StepRecord", "AgentConfig")
IMMUTABLE = tuple(name for name in RECORDS if name not in (*MUTABLE, "ExecutionResult"))


@pytest.mark.parametrize("name", RECORDS)
def test_repr(name):
    build, text, _ = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equal_instances_compare_and_hash_equal(name):
    build, _, hashable = RECORDS[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", IMMUTABLE)
def test_assigning_a_field_raises(name):
    record = RECORDS[name][0]()
    field = repr(record).split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert repr(record) == RECORDS[name][1]


def test_mutable_records_take_assignment():
    step = _step()
    step.error = "failed"
    config = AgentConfig("planner", "vlm", "summarizer")
    config.planner = "other"
    assert (step.error, config.planner) == ("failed", "other")
    assert step != _step() and config != AgentConfig("planner", "vlm", "summarizer")


def test_step_record_dict_order_and_own_call_list():
    a, b = _step(), _step()
    assert list(a.to_dict()) == [
        "index", "tool", "output_name", "args", "output", "error", "backend_calls"
    ]
    a.backend_calls.append({"backend": "mock"})
    assert b.backend_calls == []


def _raises(exc_type, message, build):
    with pytest.raises(exc_type) as info:
        build()
    assert type(info.value) is exc_type
    assert str(info.value) == message


HALF_PI = math.pi / 2
AT = CameraPoint(0.0, 0.0, 10.0)

# (constructor path, exception type, message); where several checks fail,
# the first in the record's order is the one reported.
CHECKS = [
    # OrientedBox2D
    (lambda: OrientedBox2D(0.0, 0.0, 1.0, 0.0, 0.0), ValueError,
     "box sides must be positive, got 1.0x0.0"),
    (lambda: OrientedBox2D(0.0, 0.0, -1.0, 2.0, 9.0), ValueError,
     "box sides must be positive, got -1.0x2.0"),
    (lambda: OrientedBox2D(0.0, 0.0, 1.0, 2.0, 9.0), ValueError,
     "width (1.0) must be >= height (2.0); use OrientedBox2D.normalized to swap axes"),
    (lambda: OrientedBox2D(0.0, 0.0, 2.0, 1.0, HALF_PI), ValueError,
     "angle must be in [-pi/2, pi/2), got 1.5707963267948966"),
    (lambda: OrientedBox2D.normalized(0, 0, 0, 1, 0), ValueError,
     "box sides must be positive, got 1x0"),
    (lambda: OrientedBox2D.normalized(0, 0, 2, 1, math.nan), ValueError,
     "angle must be in [-pi/2, pi/2), got nan"),
    (lambda: parse_location("[1,1,-2,1,0]"), ParseError,
     "invalid 2D box '[1,1,-2,1,0]': box sides must be positive, got 1.0x-2.0"),
    # HorizontalBox2D
    (lambda: HorizontalBox2D(3, 0, 1, 2), DegenerateBox,
     "degenerate box [3,0,1,2]: need x1 < x2 and y1 < y2"),
    (lambda: parse_location("[0,2,1,2]"), ParseError,
     "invalid 2D box '[0,2,1,2]': degenerate box [0.0,2.0,1.0,2.0]: need x1 < x2 and y1 < y2"),
    # Box3D
    (lambda: Box3D(AT, 1, 2, 0, 0.0), ValueError,
     "need length >= width > 0, got length=1 width=2"),
    (lambda: Box3D(AT, 2, 0, 1, 0.0), ValueError,
     "need length >= width > 0, got length=2 width=0"),
    (lambda: Box3D(AT, 2, 1, 0, 0.0), ValueError, "height must be positive, got 0"),
    (lambda: Box3D.resting_on(AT, 1, 2, 1, 0.0, _cam()), ValueError,
     "need length >= width > 0, got length=1 width=2"),
    (lambda: Box3D.resting_on(AT, 2, 1, -1, 0.0, _cam()), ValueError,
     "height must be positive, got -1"),
    (lambda: parse_location("<0,0,10,1,2,1,0>"), ParseError,
     "invalid 3D box '<0,0,10,1,2,1,0>': need length >= width > 0, got length=1.0 width=2.0"),
    (lambda: parse_location("<0,0,10,2,1,0,0>"), ParseError,
     "invalid 3D box '<0,0,10,2,1,0,0>': height must be positive, got 0.0"),
    # CameraModel
    (lambda: CameraModel(0, 0, 0, 0, 0, 0), ValueError, "focal_length must be > 0, got 0"),
    (lambda: _cam(pixel_size=0.0, pitch=0.0), ValueError, "pixel_size must be > 0, got 0.0"),
    (lambda: _cam(image_height=0, agl=0.0), ValueError, "image size must be >= 1x1, got 1000x0"),
    (lambda: _cam(image_width=10**400), ValueError,
     f"image size must be at most {sys.float_info.max:g} px per side, got {10**400}x800"),
    (lambda: _cam(pitch=0.0, agl=0.0), ValueError, "pitch must be in (0, pi/2], got 0.0"),
    (lambda: _cam(pitch=2.0), ValueError, "pitch must be in (0, pi/2], got 2.0"),
    (lambda: _cam(agl=-1.0), ValueError, "agl must be > 0, got -1.0"),
    # VehicleRecord
    (lambda: _vehicle(brand=" ", length_mm=0.0), ValueError, "brand and model must be non-empty"),
    (lambda: _vehicle(model=""), ValueError, "brand and model must be non-empty"),
    (lambda: _vehicle(height_mm=math.inf, powertrain="X"), ValueError,
     "dimensions must be positive and finite, got (4870.0, 1950.0, inf)"),
    (lambda: _vehicle(length_mm=1000.0, price=-1.0), ValueError,
     "length_mm (1000.0) must be >= width_mm (1950.0)"),
    (lambda: _vehicle(powertrain="Diesel", price=-1.0), ValueError,
     "powertrain must be one of ('ICE', 'BEV', 'PHEV', 'HEV', 'other'), got 'Diesel'"),
    (lambda: _vehicle(price=math.nan, doors=0), ValueError,
     "price must be finite and >= 0, got nan"),
    (lambda: _vehicle(seats=0), ValueError, "doors and seats must be >= 1, got 5/0"),
    # SceneConfig
    (lambda: SceneConfig(-1, seed=-1), ValueError, "n_vehicles must be >= 0, got -1"),
    (lambda: SceneConfig(1, pitch_range=(0.0, 1.0), agl_range=(0.0, 1.0)), ValueError,
     "pitch_range must lie in (0, pi/2], got (0.0, 1.0)"),
    (lambda: SceneConfig(1, pitch_range=(1.2, 1.0)), ValueError,
     "pitch_range must lie in (0, pi/2], got (1.2, 1.0)"),
    (lambda: SceneConfig(1, agl_range=(10.0, math.inf), seed=-1), ValueError,
     "agl_range must be positive and finite, got (10.0, inf)"),
    (lambda: SceneConfig(1, seed=-2, ground_extent=0.0), ValueError, "seed must be >= 0, got -2"),
    (lambda: SceneConfig(1, ground_extent=0.0), ValueError, "ground_extent must be > 0, got 0.0"),
    # Plan
    (lambda: Plan(()), PlanParseError, "plan has no steps"),
    (lambda: Plan((ToolCall("teleport", {}, "1a"),)), PlanParseError,
     "plan must end with a summarize step, ends with 'teleport'"),
    (lambda: plan_from_steps([{"tool": "query_table", "output_name": "a"}]), PlanParseError,
     "plan must end with a summarize step, ends with 'query_table'"),
    (lambda: plan_from_steps([{"tool": "teleport", "output_name": "1a"},
                              {"tool": "summarize", "output_name": "b"}]),
     PlanParseError, "unknown tool 'teleport'"),
    (lambda: plan_from_steps([{"tool": "summarize", "output_name": "1a"}]), PlanParseError,
     "invalid output name '1a'"),
    (lambda: plan_from_steps([{"tool": "query_table", "output_name": "a"},
                              {"tool": "summarize", "output_name": "a"}]),
     PlanParseError, "duplicate output name 'a'"),
]


@pytest.mark.parametrize("build, exc_type, message", CHECKS)
def test_check_raises_its_message(build, exc_type, message):
    _raises(exc_type, message, build)


@pytest.mark.parametrize("row, message", [
    (" ,Tang,4870,1950,1725,PHEV,239800,5,7", "brand and model must be non-empty"),
    ("BYD,Tang,4870,0,1725,PHEV,239800,5,7",
     "dimensions must be positive and finite, got (4870.0, 0.0, 1725.0)"),
    ("BYD,Tang,1000,1950,1725,PHEV,-1,5,7", "length_mm (1000.0) must be >= width_mm (1950.0)"),
    ("BYD,Tang,4870,1950,1725,PHEV,inf,5,7", "price must be finite and >= 0, got inf"),
    ("BYD,Tang,4870,1950,1725,PHEV,239800,0,7", "doors and seats must be >= 1, got 0/7"),
])
def test_load_table_reports_the_record_check(tmp_path, row, message):
    path = tmp_path / "table.csv"
    path.write_text(
        "brand,model,length_mm,width_mm,height_mm,powertrain,price,doors,seats\n"
        f"Aion,S,4800,1880,1530,BEV,150000,4,5\n{row}\n"
    )
    _raises(ParseError, f"{path}: row 3: {message}", lambda: load_table(path))


def test_annotation_from_dict_builds_checked_records():
    ann = annotation_from_dict(make_annotation_dict(pitch_deg=60.0))
    assert ann.camera == CameraModel(0.01, 1e-5, 1000, 1000, math.radians(60.0), 50.0)
    assert ann.objects[0].obb == OrientedBox2D.normalized(
        540.0, 440.0, 90.0, 36.0, math.radians(-30.0)
    )
    # A camera field the record would reject fails the schema check first.
    data = make_annotation_dict()
    data["camera"]["agl_m"] = 0
    _raises(
        SchemaError, "/camera/agl_m: 0 is not greater than 0", lambda: annotation_from_dict(data)
    )
