"""framecat: a finite workbench for etale topological categories,
restriction quantal frames and complete restriction monoids.

Everything is exhaustively verified on finite instances: the open-set
quantale of an etale category, the filter category of a quantal frame, the
comparison isomorphisms between them, the translation through complete
restriction monoids, and the adjunctions relating all of these, checked by
literal hom-set enumeration.
"""

__version__ = "0.1.0"

from .order import (CPFilter, FiniteFrame, FiniteLattice, FinitePoset,
                    cp_filters_bruteforce, enumerate_cp_filters,
                    frame_from_leq, frame_spatial_check, is_frame,
                    join_irreducibles, lattice_from_leq, meet_prime_elements,
                    validate_frame, validate_lattice, validate_poset)
from .quantale import (EhresmannQuantale, FiniteQuantale,
                       RestrictionQuantalFrame, compatible,
                       compatibility_lemma_check, every_element_is_join_of_pi,
                       frame_as_quantale, make_eq, partial_isometries,
                       pi_is_order_ideal, validate_ehresmann, validate_quantale,
                       validate_rqf)
from .topcat import (FiniteCategory, FiniteTopCategory, Topology,
                     continuity_check, is_etale, make_category, validate_category,
                     validate_covering_functor, validate_topcategory)
from .functors import (FilterCategory, OmegaResult, c_morphism,
                       c_object, omega_morphism, omega_object)
from .duality import (build_chi, build_omega_map, chi_is_isomorphism,
                      enumerate_covering_functors, enumerate_rqf_morphisms,
                      find_category_isomorphism, is_sober, is_spatial,
                      omega_is_isomorphism, quantale_isomorphism_ok, transposes,
                      validate_rqf_morphism, verify_adjunction_I)
from .crm import (BisectionMonoid, CompleteRestrictionMonoid, IdealCompletion,
                  bisection_monoid, crm_compatible, enumerate_callitic_morphisms,
                  is_callitic, is_proper, l_vee,
                  make_crm, pi_restriction_monoid, s_filter_bijection,
                  s_filters, theta_extension, validate_crm,
                  validate_crm_morphism, verify_adjunction_II)
from .reports import (BoundExceeded, CheckReport, InternalError, Report, Violation,
                      WorkbenchError)
from .documents import ParseError, WorkbenchDocument, parse_document, serialize_document
