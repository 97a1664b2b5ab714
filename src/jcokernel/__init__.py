"""Exact computational representation theory for symplectic tensor spaces:
free Lie projectors, Brauer diagram calculus, branching multiplicities, and
the cokernel detection pipeline built from them."""

from .brauer import (
    BrauerDiagram,
    BrauerElement,
    act_twisted,
    all_diagrams,
    check_relations,
    compose_diagrams,
    ram_character,
    restriction_multiset,
    span_equality_check,
)
from .combinatorics import (
    brauer_dim,
    gl_to_sp_branching,
    kw_multiplicity,
    lr_coefficient,
    mult_gl_in_cyclic,
    mult_gl_in_free_lie,
    mult_gl_in_h,
    mult_sp_in_module,
    sk_character,
    sp_decomposition,
    witt_rank,
)
from .detector import DetectionReport, detect, uniqueness_context
from .freelie import (
    FAMILY_ALTERNATING,
    FAMILY_SYMMETRIC,
    averaged_projector,
    closed_form_phi,
    is_in_h,
    is_lie_element,
    left_normed_bracket,
    phi_candidate,
    theta,
    theta_stabilizer,
)
from .partitions import (
    CycleType,
    Partition,
    gl_dimension,
    partitions_of,
    sp_dimension,
    standard_tableaux,
    syt_count,
)
from .spweights import is_maximal, raising_operators, word_weight
from .tensorspace import (
    CyclicVector,
    PermAlgebraElement,
    SparseTensor,
    SymplecticSpace,
    TermLimitError,
    act_perm,
    cont_k,
    cyclic_project,
    expansion,
    gl_maximal_vector,
    omega,
    set_term_limit,
    sp_maximal_vector,
    wedge,
    young_symmetrizer,
)

__version__ = "0.1.0"
