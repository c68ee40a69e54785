"""Cominuscule subvarieties of flag varieties via root-system combinatorics.

Decorate a Dynkin diagram, grade the roots by the crossed nodes, close the
extreme-grade roots into a subsystem, and read off the decorated diagram of
the associated cominuscule variety.  The verify module re-derives every
answer from closed-form rules and checks the two against each other.
"""

from .classify import (
    CominusculeId,
    classify_cominuscule,
    cominuscule_id,
    recognize_labelings,
)
from .errors import (
    ClassificationError,
    CominusculeError,
    DecorationError,
    InvalidDiagramError,
    NotCominusculeError,
)
from .grading import (
    Decoration,
    GradedRootSystem,
    box,
    box_union,
    grade_diagram,
)
from .hasse import (
    HasseDiagram,
    export,
    flag_hasse,
    hasse,
    highest_component,
    restrict,
)
from .rootsys import (
    Component,
    DiagramType,
    Root,
    RootSystem,
    build_root_system,
    diagram_type,
    normalize_component,
)
from .subsystem import (
    DecoratedDiagram,
    Subsystem,
    associated_diagram,
    decorated_diagram,
    direct_subsystem,
    generate_subsystem,
    perpendicular_compacts,
)
from .verify import (
    ExpectedResult,
    Mismatch,
    SweepReport,
    expected_answer,
    sweep,
    sweep_inputs,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationError",
    "CominusculeError",
    "CominusculeId",
    "Component",
    "Decoration",
    "DecorationError",
    "DecoratedDiagram",
    "DiagramType",
    "ExpectedResult",
    "GradedRootSystem",
    "HasseDiagram",
    "InvalidDiagramError",
    "Mismatch",
    "NotCominusculeError",
    "Root",
    "RootSystem",
    "Subsystem",
    "SweepReport",
    "associated_diagram",
    "box",
    "box_union",
    "build_root_system",
    "classify_cominuscule",
    "cominuscule_id",
    "decorated_diagram",
    "diagram_type",
    "direct_subsystem",
    "expected_answer",
    "export",
    "flag_hasse",
    "generate_subsystem",
    "grade_diagram",
    "hasse",
    "highest_component",
    "normalize_component",
    "perpendicular_compacts",
    "recognize_labelings",
    "restrict",
    "sweep",
    "sweep_inputs",
]
