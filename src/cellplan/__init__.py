"""Multi-objective grid path planning via a cell-mapping database.

One build computes, for every free cell, the full Pareto front of
(path length, terrain cost) vectors into a goal region; queries then answer
front, exact path-count, coverage, and path-enumeration questions without
searching again. An MOA* baseline and a brute-force oracle cross-check it.
"""

from .pareto import (
    MAX_COMPONENT,
    CostOverflowError,
    LabelSet,
    Vector,
    dominates,
    nondominated,
)
from .grid import (
    DIAGONAL_STEP,
    STRAIGHT_STEP,
    Cell,
    GoalRegion,
    GridMap,
    MapFormatError,
    free_cells,
    map_digest,
    neighbors,
    parse_map,
    random_map,
    serialize_map,
    step_length,
)
from .cellmap import (
    CONVENTION_TAG,
    DB_VERSION,
    Database,
    DigestMismatchError,
    build_database,
    hop_cost,
    load_database,
    save_database,
    verify_database,
)
from .query import (
    QueryResult,
    count_paths,
    coverage,
    enumerate_paths,
    pareto_front_at,
    render_coverage_ascii,
    render_coverage_pgm,
    render_front_csv,
    render_report_json,
    successors,
)
from .moastar import heuristic, moa_star
from .oracle import brute_force
from .bench import BenchConfig, BenchReport, amortization_table, run_campaign

__all__ = [
    "MAX_COMPONENT", "CostOverflowError", "LabelSet", "Vector",
    "dominates", "nondominated",
    "DIAGONAL_STEP", "STRAIGHT_STEP", "Cell", "GoalRegion", "GridMap",
    "MapFormatError", "free_cells", "map_digest", "neighbors", "parse_map",
    "random_map", "serialize_map", "step_length",
    "CONVENTION_TAG", "DB_VERSION", "Database", "DigestMismatchError",
    "build_database", "hop_cost", "load_database", "save_database",
    "verify_database",
    "QueryResult", "count_paths", "coverage", "enumerate_paths",
    "pareto_front_at", "render_coverage_ascii", "render_coverage_pgm",
    "render_front_csv", "render_report_json", "successors",
    "heuristic", "moa_star",
    "brute_force",
    "BenchConfig", "BenchReport", "amortization_table", "run_campaign",
]

__version__ = "0.1.0"
