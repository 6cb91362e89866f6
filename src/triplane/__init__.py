"""Combinatorial representation and verification of 3-plane drawings.

A drawing of a graph in which every edge is crossed at most three times is
stored purely combinatorially (edges with ordered crossing lists plus
counterclockwise rotations at vertices and crossings).  On top of that the
package computes cell/trail/configuration censuses, evaluates the 21
built-in counting rows, checks the Density Formula for any rational t,
and verifies the exact LP certificates behind the bounds
|E| <= 5.5(n-2) and |X| <= 5.5(n-2).
"""

from .census import (CensusError, CensusReport, Configuration, Trail,
                     WitnessError, census, extract_trails, is_3saturated)
from .certificate import (Certificate, CertificateError, builtin_certificate,
                          verify_numeric, verify_symbolic)
from .combmap import CombMap, MapError
from .constraints import (ConstraintError, ConstraintReport, ROWS,
                          density_residual, evaluate_constraints)
from .drawing import (Drawing, EdgeRecord, TDRError, parse_tdr,
                      serialize_tdr, stats, validate)
from .generators import (BASIC_NAMES, GenerationError, build_random_scene,
                         gen_basic, gen_fig2, gen_fig3, ingest_geometry,
                         random_drawing)
from .geometry import GeometricScene, SceneError, parse_scene, serialize_scene
from .saturate import SaturateError, saturate

__version__ = "0.1.0"

__all__ = [
    "BASIC_NAMES", "CensusError", "CensusReport", "Certificate",
    "CertificateError", "CombMap", "Configuration", "ConstraintError",
    "ConstraintReport", "Drawing", "EdgeRecord", "GenerationError",
    "GeometricScene", "MapError", "ROWS", "SaturateError", "SceneError",
    "TDRError", "Trail", "WitnessError", "build_random_scene",
    "builtin_certificate", "census", "density_residual",
    "evaluate_constraints", "extract_trails", "gen_basic", "gen_fig2",
    "gen_fig3", "ingest_geometry", "is_3saturated", "parse_scene", "parse_tdr",
    "random_drawing", "saturate", "serialize_scene", "serialize_tdr", "stats",
    "validate", "verify_numeric", "verify_symbolic",
]
