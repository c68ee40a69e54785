"""Cominuscule subvarieties of flag varieties via root-system combinatorics.

Decorate a Dynkin diagram, grade the roots by the crossed nodes, close the
extreme-grade roots into a subsystem, and read off the decorated diagram of
the associated cominuscule variety.  The verify module re-derives every
answer from closed-form rules and checks the two against each other.
"""

from .classify import (
    CominusculeId,
    Recognition,
    RecognizedComponent,
    classify_cominuscule,
    cominuscule_id,
    recognize,
    recognize_labelings,
)
from .errors import (
    ClassificationError,
    CominusculeError,
    DecorationError,
    InvalidDiagramError,
    NotARootError,
    NotCominusculeError,
)
from .grading import (
    Decoration,
    GradedRootSystem,
    box,
    box_union,
    grade_diagram,
    p_grade,
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
    height,
    is_positive,
    normalize_component,
    pairing,
    reflect,
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
    "NotARootError",
    "NotCominusculeError",
    "Recognition",
    "RecognizedComponent",
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
    "height",
    "highest_component",
    "is_positive",
    "normalize_component",
    "p_grade",
    "pairing",
    "perpendicular_compacts",
    "recognize",
    "recognize_labelings",
    "reflect",
    "restrict",
    "sweep",
    "sweep_inputs",
]
