"""Exactly verified liminf covering constructions on Cantor space.

The package simulates, at desk scale and in exact rational arithmetic, the
covering processes that upgrade the liminf of a uniformly presented family
(finite sets, semimeasures, open sets, step functions) into a single object
of the same size class, and verifies every guaranteed bound against
independent liminf oracles.  Infinite enumerable families are stood in
for by stabilized traces: finitely many enumeration events plus a constant
tail, which makes every oracle-style acceptability question decidable by a
finite scan.
"""

from .fatou import FatouResult, StepFunction, run_fatou, verify_fatou
from .kernel import CylinderSet, InputError, RealInterval, parse_rational
from .measurecover import (
    MeasureCoverResult,
    RationalGrid,
    frequency_semimeasures,
    frequency_trace,
    run_measure_cover,
    run_tree_cover,
    verify_frequency_cover,
    verify_measure_cover,
    verify_tree_cover,
)
from .opencover import (
    DeltaSchedule,
    OmegaFamilyResult,
    OpenCoverResult,
    omega_family,
    run_block_cover,
    run_naive_cover,
    run_trim_cover,
    verify_omega_family,
    verify_open_cover,
)
from .randlab import (
    DecoderTable,
    TestApproximation,
    bar_deficiency,
    deficiency_cover_family,
    deficiency_pipeline,
    deficiency_sets,
    parse_decoder,
    stabilize_test,
    verify_stabilize,
)
from .setcover import SetCoverResult, run_set_cover, verify_set_cover
from .traces import (
    ParseError,
    StabilizedFamily,
    format_trace,
    liminf_open,
    liminf_sets,
    liminf_table,
    liminf_values,
    parse_trace,
)
from .verdict import Check, Verdict

__version__ = "0.1.0"
