"""Exact computational representation theory for symplectic tensor spaces:
free Lie projectors, Brauer diagram calculus, branching multiplicities, and
the cokernel detection pipeline built from them."""

from .brauer import (
    BrauerDiagram,
    BrauerElement,
    act_twisted,
    check_relations,
    compose_diagrams,
    ram_character,
)
from .combinatorics import (
    brauer_dim,
    gl_to_sp_branching,
    kw_multiplicity,
    lr_coefficient,
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
    phi_candidate,
    theta,
    theta_stabilizer,
)
from .partitions import (
    CycleType,
    Partition,
    partitions_of,
    standard_tableaux,
    syt_count,
)
from .spweights import is_maximal, word_weight
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
    wedge,
)

__version__ = "0.1.0"
