"""repro.bounds — static I/O lower bounds and optimality analysis.

Red-blue-pebbling-style lower bounds on element transfers for the
affine loop nests of the registry, derived from the IR alone (loop
headers, reference footprints, iteration domains) given a memory
capacity ``M``.  The observability stack (:mod:`repro.obs`) pairs
these with measured transfers into per-nest ``OptimalityRecord`` rows,
turning relative wins ("c-opt beats col") into absolute statements
("c-opt is within X% of optimal").
"""

from .analysis import (
    bounds_by_nest,
    classify_nest,
    domain_size,
    find_contraction,
    nest_footprint_counts,
    nest_lower_bound,
    program_bounds,
    ref_image_size,
)
from .model import (
    RULE_COLD,
    RULE_CONTRACTION,
    RULE_REDUCTION,
    RULE_STENCIL,
    RULE_TRANSPOSE,
    RULES,
    NestBound,
)


def run_bounds(program, binding, budget, peak, n_nodes, warm):
    """Per-nest bounds for an executed run, as both entry points pair
    them with measured transfers: argued against the run's *effective*
    per-node capacity — the nominal ``budget``, or the worst ``peak``
    when pathological tiles overran it (a bound argued against less
    memory than the run used is wrong) — and ``warm``-discounted
    whenever a tile cache kept data resident across repetitions."""
    return program_bounds(
        program,
        binding=binding,
        memory_elements=max(budget, peak),
        n_nodes=n_nodes,
        warm=warm,
    )


__all__ = [
    "NestBound",
    "RULES",
    "RULE_COLD",
    "RULE_CONTRACTION",
    "RULE_REDUCTION",
    "RULE_STENCIL",
    "RULE_TRANSPOSE",
    "bounds_by_nest",
    "classify_nest",
    "domain_size",
    "find_contraction",
    "nest_footprint_counts",
    "nest_lower_bound",
    "program_bounds",
    "ref_image_size",
    "run_bounds",
]
