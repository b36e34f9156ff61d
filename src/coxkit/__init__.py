"""Exact combinatorics of Coxeter systems: roots, automata, growth series."""

from .core import (
    CoxeterMatrix,
    CoxeterSystem,
    DomainError,
    GroupElement,
    LimitExceeded,
    cayley_bfs,
    coxeter_matrix_from_descriptor,
    format_word,
    is_reflection,
    parse_word,
    preset,
)
from .field import AlgebraicNumber, CyclotomicField
from .roots import (
    Root,
    RootPoset,
    dominance_set,
    m_small_roots,
    reflection_from_root,
    root_depth,
    root_poset,
    root_profile,
)
from .prefixes import (
    ReflectionPrefix,
    check_prefix_bilinear,
    is_reflection_prefix,
    palindromic_word,
    prefixes_of,
    reflections_up_to,
)
from .dihedral import (
    DihedralSubgroup,
    canonical_generators,
    canonical_generators_repfree,
)
from .automata import (
    Dfa,
    accepts,
    build_automaton,
    count_by_length,
    dfa_to_dot,
    dfa_to_obj,
    low_elements,
)
from .series import (
    Polynomial,
    RationalSeries,
    dfa_series,
    pal_series,
)
from .affine import (
    AffineDatum,
    OrbitSeries,
    affine_datum,
    affine_to_obj,
    depth_polynomial,
    depth_series,
    orbit_series,
    reflection_series,
)

__version__ = "0.1.0"
