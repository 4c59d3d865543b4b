"""structfft: fast DFT computation for signals with structured frequency support.

Given a length-N signal (N a power of two) whose frequency support J is known,
this package computes the DFT coefficients on J using the congruence-tree
structure of J: a generalized radix-2 butterfly when J is (part-)homogeneous
and shift-and-sample decoding with per-node Vandermonde systems in general,
with exact operation counting throughout.
"""

from .congruence import (
    Classification,
    CongruenceTree,
    SupportSet,
    build_tree,
    classify,
    height_of,
    is_part_homogeneous,
    pivots,
    pivots_pairwise,
    v2,
)
from .core import (
    BandlimitedSignal,
    aliased_class_sums,
    dft_direct,
    downsample,
    fft_radix2,
    idft_direct,
    rel_error,
    submatrix_apply,
)
from .counting import CostReport, OpCounter
from .errors import (
    BudgetExceededError,
    ContractViolationError,
    InvalidInputError,
    StructFFTError,
)
from .families import (
    FamilyInstance,
    FamilySpec,
    GapResult,
    GapSpec,
    doubling,
    draw_coefficients,
    gap_pivot_envelope,
    gen_ap,
    gen_consecutive,
    gen_elementary,
    gen_gap,
    gen_homogeneous,
    gen_jstar,
    gen_random_subset,
    gen_random_subset_zn,
    gen_uoe,
    gen_uoh,
    rng_from_seed,
)
from .hidft import (
    BlockFactorizationReport,
    HiDftResult,
    SpectralityReport,
    block_factorization_check,
    hidft,
    hidft_oracle,
    hidft_to_dft,
    spectrality_check,
    submatrix_unitarity,
)
from .sampling import (
    IsolationReport,
    IsolationSearchResult,
    SamplingPattern,
    aliasing_is_zero,
    aliasing_value,
    check_isolation,
    min_isolating_set,
    pivoted_pattern,
)
from .sas import (
    SasPlan,
    SasResult,
    sas_transform,
    select_pivots,
    submatrix_method,
    vandermonde_solve,
)

__version__ = "0.1.0"
