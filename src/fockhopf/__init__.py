"""Depth-truncated Fock space toolkit.

Shift operators on truncated Fock spaces, Fourier analysis of the resulting
algebra, the tensor-square comultiplication with its exactly-checkable
axioms, the predual convolution algebra, corepresentations and their
bijection with predual representations, the wandering-subspace dimension
counts, and a deterministic verification CLI.
"""

from .words import Alphabet, Word, enumerate_words, count_words, word
from .spaces import (
    AuxSpace,
    FockSpace,
    Operator,
    TensorSpace,
    Vector,
    basis_vector,
    max_entry_diff,
    tensor_space,
)
from .regular import (
    FourierSeries,
    cesaro_sum,
    fourier_coefficients,
    left_shift,
    membership_defect,
    realize,
    right_shift,
    word_shift,
)
from .hopf import (
    coassociativity_defect,
    cocommutativity_defect,
    comult,
    grouplike_defect,
    grouplike_series,
    homomorphism_defect,
    integral_invariance_defect,
    integral_value,
)
from .predual import (
    Functional,
    PointFunctional,
    convolve,
    counit_defect,
    dagger,
    from_rank_one,
    indicator_functional,
    point_convolution_defect,
    point_functional,
    pointwise_product,
    predual_comult,
)
from .corep import (
    Corepresentation,
    CorepReport,
    PredualRep,
    coefficient_operator,
    corep_check,
    corep_from_rep,
    fundamental_corep,
    rep_from_corep,
    spectrum,
    tensor_product_rep,
)
from .wandering import (
    WanderingReport,
    strip_common_prefix,
    wandering_check,
    wandering_dim,
    wandering_dim_closed_form,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
