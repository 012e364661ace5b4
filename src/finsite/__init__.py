"""Exact computational engine for (pre)sheaves and (pre)cosheaves on finite
Grothendieck sites, with pro-valued (tower) cosheafification."""

from .category import (Cover, CoverChain, Coverage, FiniteCategory, Morphism,
                       PointFilter, Sieve, SiteSpec, comma_of_sieve, find_refinement,
                       poset_category, sieve_from_cover, validate_site)
from .cosheaf import (CheckReport, Precosheaf,
                      PrecosheafMorphism, check_cosheaf, cosheaf_defect,
                      cosheafify, constant_precosheaf, costalk,
                      is_locally_zero, is_smooth, plus_cosheaf,
                      precosheaf_from_tables, strong_local_iso_check,
                      tensor_with_sieve, universal_factorization_check)
from .errors import (EngineError, HeterogeneousDiagram, InsufficientDepth,
                     InvalidCategory, InvalidDocument, SiteError)
from .sheaf import (Presheaf, check_sheaf, hom_into_presheaf, hom_with_sieve,
                    plus_sheaf, sheafify, stalk)
from .spaces import (FiniteSpace, builtin_demos, converging_sequence_site,
                     h0_precosheaf, open_site, pi0_precosheaf, pseudocircle,
                     site_points)
from .towers import (LevelMorphism, Tower, equal_at_depth, is_epi_at_depth,
                     is_iso_at_depth, is_rudimentary_at_depth,
                     pro_hom_at_depth, tower_colimit)
from .values import (FINAB, FINSET, FinAbMap, FinAbObj, FinSetMap, FinSetObj,
                     FiniteDiagram, classify_map, finite_colimit,
                     finite_limit, functor_pairings, set_pairings,
                     smith_normal_form)

__all__ = [name for name in dir() if not name.startswith("_")]
